package switchfab

import (
	"fmt"

	"nocemu/internal/flit"
)

// Arena is the dense switch store of a platform: every switch lives by
// value in one contiguous slice (each with its own dense input-buffer
// block), and the whole population registers with the engine as a
// single component (engine.Arena). The per-cycle walk calls the
// concrete Tick directly over adjacent memory — no interface dispatch,
// no pointer chasing between neighbouring switches — which is what
// keeps the route/arbitrate loop cache-resident at 1k-node scale. A
// switch's lanes act within its Tick; after it, the gate asks the arena
// for its quiet report.
//
// The arena is storage plus evaluation; which switches are worth
// evaluating in a given cycle is the engine's decision (its gate
// schedules the arena element by element through the *List and Elem*
// methods).
type Arena struct {
	name string
	sws  []Switch
}

// NewArena returns an empty switch arena with fixed capacity. The
// capacity is exact: the platform knows its switch count at build time,
// and a fixed backing array keeps the *Switch handles returned by New
// stable.
func NewArena(name string, n int) *Arena {
	return &Arena{name: name, sws: make([]Switch, 0, n)}
}

// New appends a switch to the arena, initializing it in place, and
// returns its handle. The handle stays valid for the arena's lifetime.
// Exceeding the declared capacity is a construction bug and panics
// (growth would move every previously handed-out switch).
func (a *Arena) New(cfg Config) (*Switch, error) {
	if len(a.sws) == cap(a.sws) {
		panic(fmt.Sprintf("switchfab: arena %s capacity %d exceeded", a.name, cap(a.sws)))
	}
	a.sws = append(a.sws, Switch{})
	s := &a.sws[len(a.sws)-1]
	if err := initSwitch(s, cfg); err != nil {
		a.sws = a.sws[:len(a.sws)-1]
		return nil, err
	}
	return s, nil
}

// ComponentName implements engine.Component.
func (a *Arena) ComponentName() string { return a.name }

// Tick implements engine.Component: evaluate every switch.
func (a *Arena) Tick(cycle uint64) { a.TickRange(0, len(a.sws), cycle) }

// Len implements engine.Arena.
func (a *Arena) Len() int { return len(a.sws) }

// TickRange implements engine.Arena: tick switches [lo, hi).
func (a *Arena) TickRange(lo, hi int, cycle uint64) {
	for i := lo; i < hi; i++ {
		a.sws[i].Tick(cycle)
	}
}

// Commit implements engine.Component; the kernel never calls it.
func (a *Arena) Commit(uint64) {}

// TickList implements engine.Arena: tick the listed switches.
func (a *Arena) TickList(idx []int, cycle uint64) {
	for _, i := range idx {
		a.sws[i].Tick(cycle)
	}
}

// QuietList implements engine.Arena: report which of the listed
// switches went quiet — no lane occupied and no flit arriving next
// cycle, state their Ticks left or the cycle's Sends raised. A busy
// switch answers from its first occupancy word.
func (a *Arena) QuietList(idx []int, cycle uint64, quiet []int) []int {
	for r, i := range idx {
		if _, q := a.sws[i].NextWake(cycle); q {
			quiet = append(quiet, r)
		}
	}
	return quiet
}

// ElemSkipIdle implements engine.Arena.
func (a *Arena) ElemSkipIdle(i int, from, n uint64) { a.sws[i].SkipIdle(from, n) }

// NextWake implements engine.Quiescable for kernels that gate the
// arena as a whole: quiet when every switch is.
func (a *Arena) NextWake(cycle uint64) (uint64, bool) {
	for i := range a.sws {
		if _, quiet := a.sws[i].NextWake(cycle); !quiet {
			return 0, false
		}
	}
	return ^uint64(0), true
}

// SkipIdle implements engine.Quiescable.
func (a *Arena) SkipIdle(from, n uint64) {
	for i := range a.sws {
		a.sws[i].SkipIdle(from, n)
	}
}

// Shift moves every switch's cycle stamp along an engine rewind
// (engine.OnReset).
func (a *Arena) Shift(delta uint64) {
	for i := range a.sws {
		a.sws[i].Shift(delta)
	}
}

// Drain empties every switch's input lanes through release and clears
// wormhole locks (end-of-run reclamation).
func (a *Arena) Drain(release func(*flit.Flit)) {
	for i := range a.sws {
		a.sws[i].Drain(release)
	}
}
