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

// Arbiter picks one winner among n requesters per cycle. It is a value
// with its policy as a field: a switch keeps one per output port in a
// slice, with no interface or heap object between a port and its
// priority state.
type Arbiter struct {
	policy Policy
	n      int
	next   int   // round-robin: highest-priority requester this cycle
	order  []int // least-recently-granted: order[0] has highest priority
}

// New builds an arbiter of the given policy for n requesters.
func New(policy Policy, n int) (Arbiter, error) {
	if n < 1 {
		return Arbiter{}, fmt.Errorf("arb: %d requesters", n)
	}
	a := Arbiter{policy: policy, n: n}
	switch policy {
	case RoundRobin, FixedPriority:
	case LeastRecentlyGranted:
		a.order = make([]int, n)
		a.Reset()
	default:
		return Arbiter{}, fmt.Errorf("arb: unknown policy %q", policy)
	}
	return a, nil
}

// Reset restores the arbiter's initial priority state.
func (a *Arbiter) Reset() {
	a.next = 0
	for i := range a.order {
		a.order[i] = i
	}
}

// Grant returns the granted requester index, or ok=false when no
// requester is active. req is the request mask, Words(N()) long:
// requester i is active when bit i%64 of word i/64 is set, and no bit at
// or above N() may be.
func (a *Arbiter) Grant(req []uint64) (int, bool) {
	switch a.policy {
	case FixedPriority:
		return firstFrom(req, 0)
	case LeastRecentlyGranted:
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

// SaveState serializes the priority state (DESIGN.md §13): the
// round-robin pointer, the least-recently-granted order, and nothing for
// fixed priority, whose empty section keeps the framing walk uniform.
func (a *Arbiter) SaveState(w *state.Writer) {
	switch a.policy {
	case RoundRobin:
		w.Int(a.next)
	case LeastRecentlyGranted:
		for _, i := range a.order {
			w.Int(i)
		}
	}
}

// LoadState restores the priority state.
func (a *Arbiter) LoadState(r *state.Reader) error {
	switch a.policy {
	case RoundRobin:
		next := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if next < 0 || next >= a.n {
			return fmt.Errorf("arb: round-robin pointer %d of %d requesters", next, a.n)
		}
		a.next = next
	case LeastRecentlyGranted:
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
	}
	return r.Err()
}
