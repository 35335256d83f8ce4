// Package arb provides the output-port arbiters used inside the
// emulated switches.
//
// Each switch output port carries one flit per cycle; when several
// input ports hold head flits routed to the same output, an arbiter
// picks the winner. The emulator ships the round-robin arbiter the
// FPGA switches use, plus fixed-priority and least-recently-granted
// policies for ablation studies.
package arb

import (
	"fmt"
	"math/bits"

	"nocemu/internal/state"
)

// Words returns the length of a request mask over n requesters.
func Words(n int) int { return (n + 63) / 64 }

// Arbiter picks one winner among n requesters per cycle.
type Arbiter interface {
	// Grant returns the granted requester index, or ok=false when no
	// requester is active. req is the request mask, Words(N()) long:
	// requester i is active when bit i%64 of word i/64 is set, and no
	// bit at or above N() may be.
	Grant(req []uint64) (winner int, ok bool)
	// N returns the number of requesters.
	N() int
	// Reset restores the arbiter's initial priority state.
	Reset()
	// SaveState serializes the priority state (DESIGN.md §13).
	SaveState(w *state.Writer)
	// LoadState restores the priority state.
	LoadState(r *state.Reader) error
}

// Policy names an arbitration policy for configuration files.
type Policy string

const (
	// RoundRobin rotates priority to the requester after the last winner.
	RoundRobin Policy = "round-robin"
	// FixedPriority always favours the lowest index.
	FixedPriority Policy = "fixed"
	// LeastRecentlyGranted favours the requester idle the longest.
	LeastRecentlyGranted Policy = "lrg"
)

// New builds an arbiter of the given policy for n requesters.
func New(policy Policy, n int) (Arbiter, error) {
	if n < 1 {
		return nil, fmt.Errorf("arb: %d requesters", n)
	}
	switch policy {
	case RoundRobin:
		return &roundRobin{n: n, next: 0}, nil
	case FixedPriority:
		return &fixed{n: n}, nil
	case LeastRecentlyGranted:
		a := &lrg{n: n, order: make([]int, n)}
		a.Reset()
		return a, nil
	default:
		return nil, fmt.Errorf("arb: unknown policy %q", policy)
	}
}

type roundRobin struct {
	n    int
	next int // highest-priority requester this cycle
}

func (a *roundRobin) N() int { return a.n }

func (a *roundRobin) Reset() { a.next = 0 }

func (a *roundRobin) Grant(req []uint64) (int, bool) {
	i, ok := firstFrom(req, a.next)
	if !ok {
		if i, ok = firstFrom(req, 0); !ok {
			return 0, false
		}
	}
	if a.next = i + 1; a.next == a.n {
		a.next = 0
	}
	return i, true
}

// firstFrom returns the lowest active requester at or above from.
func firstFrom(req []uint64, from int) (int, bool) {
	w := from >> 6
	if m := req[w] &^ (1<<(from&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m), true
	}
	for w++; w < len(req); w++ {
		if req[w] != 0 {
			return w<<6 + bits.TrailingZeros64(req[w]), true
		}
	}
	return 0, false
}

func (a *roundRobin) SaveState(w *state.Writer) { w.Int(a.next) }

func (a *roundRobin) LoadState(r *state.Reader) error {
	next := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if next < 0 || next >= a.n {
		return fmt.Errorf("arb: round-robin pointer %d of %d requesters", next, a.n)
	}
	a.next = next
	return nil
}

type fixed struct{ n int }

func (a *fixed) N() int { return a.n }

func (a *fixed) Reset() {}

func (a *fixed) Grant(req []uint64) (int, bool) { return firstFrom(req, 0) }

// SaveState writes nothing: fixed priority carries no state, and the
// empty section keeps the framing walk uniform.
func (a *fixed) SaveState(w *state.Writer) {}

func (a *fixed) LoadState(r *state.Reader) error { return r.Err() }

type lrg struct {
	n     int
	order []int // order[0] has highest priority
}

func (a *lrg) N() int { return a.n }

func (a *lrg) Reset() {
	for i := range a.order {
		a.order[i] = i
	}
}

func (a *lrg) Grant(req []uint64) (int, bool) {
	for pos, i := range a.order {
		if req[i>>6]>>(i&63)&1 != 0 {
			// Move winner to the back: it becomes lowest priority.
			copy(a.order[pos:], a.order[pos+1:])
			a.order[a.n-1] = i
			return i, true
		}
	}
	return 0, false
}

func (a *lrg) SaveState(w *state.Writer) {
	for _, i := range a.order {
		w.Int(i)
	}
}

func (a *lrg) LoadState(r *state.Reader) error {
	order := make([]int, a.n)
	seen := make([]bool, a.n)
	for k := range order {
		i := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if i < 0 || i >= a.n || seen[i] {
			return fmt.Errorf("arb: lrg order is not a permutation of %d requesters", a.n)
		}
		seen[i] = true
		order[k] = i
	}
	copy(a.order, order)
	return nil
}
