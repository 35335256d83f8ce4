package link

import (
	"fmt"

	"nocemu/internal/flit"
)

// Arena is the dense wire store of a platform: every flit link and
// credit link lives by value in one of two contiguous slices, and the
// whole population registers with the engine as a single component
// (engine.Arena). Batch commit loops call the concrete methods
// directly — no interface dispatch, no pointer chasing between
// neighbouring wires — which is what makes the per-cycle wire walk
// cache-linear at 1k-node scale. The software analogue of the FPGA
// clocking all nets at once.
//
// The arena is storage plus evaluation. Which wires are worth
// committing in a given cycle is the engine's decision: its gate
// schedules the arena element by element, where element i is the wire
// pair (flit link i, its credit links) — a flit crossing one way and
// the credit coming back keep the same pair busy. A pair has one credit
// link per virtual channel: the flit wire is shared, the credit streams
// are not.
type Arena struct {
	name    string
	vcs     int
	links   []Link
	credits []CreditLink // pair i owns credits[i*vcs : (i+1)*vcs]
	// onDeliver is told, once per CommitList, of the pairs whose commit
	// made a flit visible — the gated scheduler's wake of each wire's
	// consumer. delivered is that list's backing, cap = pairs.
	onDeliver func(elems []int)
	delivered []int
	// onFlit and onCredit are the Send hooks SetHooks installed; ArmHooks
	// takes them off the wires and puts them back.
	onFlit, onCredit func(elem int)
}

// NewArena returns an empty wire arena with room for n wire pairs of
// vcs virtual channels each. The capacity is exact: the platform knows
// its wire count at build time, and a fixed backing array keeps the
// handles NewPair returns stable.
func NewArena(name string, n, vcs int) *Arena {
	return &Arena{
		name:    name,
		vcs:     vcs,
		links:   make([]Link, 0, n),
		credits: make([]CreditLink, 0, n*vcs),
	}
}

// NewPair appends a flit link and its reverse credit links, one per
// virtual channel, to the arena as one element and returns their
// handles, which stay valid for the arena's lifetime. Channel 0's
// credit link is named creditName, channel v's "creditName.vcv".
// Exceeding the declared capacity is a construction bug and panics
// (growth would move every previously handed-out wire).
func (a *Arena) NewPair(linkName, creditName string) (*Link, []*CreditLink) {
	if len(a.links) == cap(a.links) {
		panic(fmt.Sprintf("link: arena %s capacity %d exceeded", a.name, cap(a.links)))
	}
	elem := int32(len(a.links))
	a.links = append(a.links, Link{name: linkName, elem: elem})
	crs := make([]*CreditLink, a.vcs)
	for v := range crs {
		name := creditName
		if v > 0 {
			name = fmt.Sprintf("%s.vc%d", creditName, v)
		}
		a.credits = append(a.credits, CreditLink{name: name, elem: elem})
		crs[v] = &a.credits[len(a.credits)-1]
	}
	return &a.links[len(a.links)-1], crs
}

// SetHooks installs the gated scheduler's arm-on-input hooks on every
// wire created so far: staging a flit on pair i calls flit(i), staging
// credits credit(i), and a CommitList that puts flits on wires calls
// deliver with their pairs. The wires carry only their index.
func (a *Arena) SetHooks(flit, credit func(elem int), deliver func(elems []int)) {
	a.onDeliver, a.delivered = deliver, make([]int, 0, len(a.links))
	a.onFlit, a.onCredit = flit, credit
	a.ArmHooks(true)
}

// ArmHooks implements engine.Hooked: off, a Send calls nothing — the
// engine walks every wire anyway while its gates stand down; on, the
// hooks SetHooks installed fire again.
func (a *Arena) ArmHooks(on bool) {
	flit, credit := a.onFlit, a.onCredit
	if !on {
		flit, credit = nil, nil
	}
	for i := range a.links {
		a.links[i].onSend = flit
	}
	for i := range a.credits {
		a.credits[i].onSend = credit
	}
}

// Len implements engine.Arena: the number of wire pairs created so far;
// the next NewPair call returns element Len().
func (a *Arena) Len() int { return len(a.links) }

// ComponentName implements engine.Component.
func (a *Arena) ComponentName() string { return a.name }

// Tick implements engine.Component; wires are passive during Tick.
func (a *Arena) Tick(cycle uint64) {}

// Commit implements engine.Component: every wire publishes its staged
// value.
func (a *Arena) Commit(cycle uint64) { a.CommitRange(0, a.Len(), cycle) }

// TickRange implements engine.Arena; wires are passive during Tick.
func (a *Arena) TickRange(lo, hi int, cycle uint64) {}

// CommitRange implements engine.Arena: commit wire pairs [lo, hi).
func (a *Arena) CommitRange(lo, hi int, cycle uint64) {
	for i := lo; i < hi; i++ {
		a.links[i].Commit(cycle)
	}
	for i := lo * a.vcs; i < hi*a.vcs; i++ {
		a.credits[i].Commit(cycle)
	}
}

// TickList implements engine.Arena; wires are passive during Tick.
func (a *Arena) TickList(idx []int, cycle uint64) {}

// CommitList implements engine.Arena: commit the listed wire pairs,
// tell the deliver hook which flit wires put a flit on view — a stuck
// fault holds the flit back, and the hook with it — and report which
// pairs went quiet. A pair just committed has no credits staged,
// so it is quiet when its flit wire holds nothing, committed or held by
// a stuck fault (committed-but-uncollected credits accumulate without
// commits and do not block quiescence). Only a Send ends that.
func (a *Arena) CommitList(idx []int, cycle uint64, quiet []int) []int {
	delivered := a.delivered[:0]
	for r, i := range idx {
		l := &a.links[i]
		if l.commit(cycle) && a.onDeliver != nil {
			delivered = append(delivered, i)
		}
		for c := i * a.vcs; c < (i+1)*a.vcs; c++ {
			a.credits[c].Commit(cycle)
		}
		if l.Idle() {
			quiet = append(quiet, r)
		}
	}
	if len(delivered) > 0 {
		a.onDeliver(delivered)
	}
	return quiet
}

// ElemSkipIdle implements engine.Arena: an idle commit advances only
// the flit wire's utilization denominator.
func (a *Arena) ElemSkipIdle(i int, from, n uint64) { a.links[i].SkipIdle(from, n) }

// NextWake implements engine.Quiescable for kernels that gate the
// arena as a whole: quiet when every wire pair is.
func (a *Arena) NextWake(cycle uint64) (uint64, bool) {
	for i := range a.links {
		if !a.links[i].Idle() {
			return 0, false
		}
	}
	for i := range a.credits {
		if !a.credits[i].Idle() {
			return 0, false
		}
	}
	return ^uint64(0), true
}

// SkipIdle implements engine.Quiescable.
func (a *Arena) SkipIdle(from, n uint64) {
	for i := range a.links {
		a.links[i].SkipIdle(from, n)
	}
}

// Drain releases every flit wire's in-flight state through release
// (end-of-run reclamation).
func (a *Arena) Drain(release func(*flit.Flit)) {
	for i := range a.links {
		a.links[i].Drain(release)
	}
}
