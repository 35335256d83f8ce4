package arb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nocemu/internal/state"
)

func maskReq(mask uint) []uint64 { return []uint64{uint64(mask)} }

func TestNewValidates(t *testing.T) {
	if _, err := New(RoundRobin, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(Policy("bogus"), 4); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, p := range []Policy{RoundRobin, FixedPriority, LeastRecentlyGranted} {
		a, err := New(p, 4)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if a.n != 4 {
			t.Errorf("%s: n = %d", p, a.n)
		}
	}
}

func TestNoRequesters(t *testing.T) {
	for _, p := range []Policy{RoundRobin, FixedPriority, LeastRecentlyGranted} {
		a, _ := New(p, 3)
		if _, ok := a.Grant(maskReq(0)); ok {
			t.Errorf("%s granted with no requests", p)
		}
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a, _ := New(RoundRobin, 3)
	all := maskReq(0b111)
	var got []int
	for i := 0; i < 6; i++ {
		w, ok := a.Grant(all)
		if !ok {
			t.Fatal("no grant")
		}
		got = append(got, w)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a, _ := New(RoundRobin, 4)
	// Only 1 and 3 request.
	req := maskReq(0b1010)
	w1, _ := a.Grant(req)
	w2, _ := a.Grant(req)
	w3, _ := a.Grant(req)
	if w1 != 1 || w2 != 3 || w3 != 1 {
		t.Errorf("grants = %d,%d,%d", w1, w2, w3)
	}
}

func TestRoundRobinReset(t *testing.T) {
	a, _ := New(RoundRobin, 3)
	a.Grant(maskReq(0b111))
	a.Reset()
	if w, _ := a.Grant(maskReq(0b111)); w != 0 {
		t.Errorf("after reset first grant = %d", w)
	}
}

func TestFixedPriorityAlwaysLowest(t *testing.T) {
	a, _ := New(FixedPriority, 4)
	for i := 0; i < 5; i++ {
		if w, _ := a.Grant(maskReq(0b1101)); w != 0 {
			t.Fatalf("grant = %d, want 0", w)
		}
	}
	if w, _ := a.Grant(maskReq(0b1100)); w != 2 {
		t.Errorf("grant = %d, want 2", w)
	}
}

func TestLRGFairness(t *testing.T) {
	a, _ := New(LeastRecentlyGranted, 3)
	all := maskReq(0b111)
	// First pass grants in initial order; afterwards the winner drops
	// to lowest priority, producing a rotation.
	var got []int
	for i := 0; i < 6; i++ {
		w, _ := a.Grant(all)
		got = append(got, w)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
	// 2 requests alone, then all: 2 must now be last priority.
	a.Reset()
	a.Grant(maskReq(0b100))
	w, _ := a.Grant(all)
	if w != 0 {
		t.Errorf("grant = %d, want 0", w)
	}
}

// Property: every arbiter grants only active requesters, and grants
// whenever at least one requester is active.
func TestArbiterSoundnessProperty(t *testing.T) {
	for _, p := range []Policy{RoundRobin, FixedPriority, LeastRecentlyGranted} {
		p := p
		f := func(masks []uint8) bool {
			a, err := New(p, 8)
			if err != nil {
				return false
			}
			for _, m := range masks {
				w, ok := a.Grant(maskReq(uint(m)))
				if m == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || m&(1<<uint(w)) == 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// Property: round-robin is starvation-free — a persistent requester is
// granted within N cycles no matter what the others do.
func TestRoundRobinStarvationFreeProperty(t *testing.T) {
	f := func(victim uint8, other uint8) bool {
		n := 6
		v := int(victim) % n
		a, _ := New(RoundRobin, n)
		req := maskReq(1<<uint(v) | uint(other)&(1<<uint(n)-1))
		for wait := 0; wait < n; wait++ {
			w, ok := a.Grant(req)
			if !ok {
				return false
			}
			if w == v {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// scanModel is the reference arbiter: the scan over a request predicate
// the mask arbiters replaced, one model for all three policies.
type scanModel struct {
	policy Policy
	next   int   // round-robin pointer
	order  []int // lrg priority order
}

func (m *scanModel) grant(n int, req func(int) bool) (int, bool) {
	for k := 0; k < n; k++ {
		i := k
		switch m.policy {
		case RoundRobin:
			i = (m.next + k) % n
		case LeastRecentlyGranted:
			i = m.order[k]
		}
		if req(i) {
			m.next = (i + 1) % n
			if m.policy == LeastRecentlyGranted {
				copy(m.order[k:], m.order[k+1:])
				m.order[n-1] = i
			}
			return i, true
		}
	}
	return 0, false
}

func savedState(a Arbiter) []byte {
	w := &state.Writer{}
	a.SaveState(w)
	return w.Bytes()
}

// Property: over random request-mask sequences every policy grants what
// the scan model grants and saves the model's priority state after
// every grant, at sizes on both sides of a word boundary; the sequence
// includes empty masks, masks with bits only in the last word, and a
// save/load round trip into a fresh arbiter midway.
func TestMaskGrantMatchesScanModel(t *testing.T) {
	for _, p := range []Policy{RoundRobin, FixedPriority, LeastRecentlyGranted} {
		for _, n := range []int{1, 5, 31, 64, 65, 130} {
			t.Run(fmt.Sprintf("%s/%d", p, n), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(int64(n)))
				a, err := New(p, n)
				if err != nil {
					t.Fatal(err)
				}
				m := &scanModel{policy: p, order: make([]int, n)}
				for i := range m.order {
					m.order[i] = i
				}
				req := make([]uint64, Words(n))
				const steps = 400
				for step := 0; step < steps; step++ {
					for w := range req {
						req[w] = 0
					}
					switch rnd.Intn(8) {
					case 0: // nobody requests
					case 1: // requests in the last word only
						req[len(req)-1] = rnd.Uint64()
					case 2: // a single requester
						i := rnd.Intn(n)
						req[i>>6] = 1 << (i & 63)
					case 3: // sparse
						for w := range req {
							req[w] = rnd.Uint64() & rnd.Uint64() & rnd.Uint64()
						}
					default:
						for w := range req {
							req[w] = rnd.Uint64()
						}
					}
					if tail := n & 63; tail != 0 {
						req[len(req)-1] &= 1<<tail - 1
					}
					want, wantOK := m.grant(n, func(i int) bool { return req[i>>6]>>(i&63)&1 != 0 })
					got, ok := a.Grant(req)
					if ok != wantOK || ok && got != want {
						t.Fatalf("step %d mask %x: grant = %d,%v, scan model %d,%v", step, req, got, ok, want, wantOK)
					}
					w := &state.Writer{} // the model's state as SaveState writes it
					switch p {
					case RoundRobin:
						w.Int(m.next)
					case LeastRecentlyGranted:
						for _, i := range m.order {
							w.Int(i)
						}
					}
					if !bytes.Equal(savedState(a), w.Bytes()) {
						t.Fatalf("step %d mask %x: priority state diverged from the scan model", step, req)
					}
					if step == steps/2 {
						fresh, _ := New(p, n)
						if err := fresh.LoadState(state.NewReader(savedState(a))); err != nil {
							t.Fatal(err)
						}
						a = fresh
					}
				}
			})
		}
	}
}

// TestRoundRobinLoadStateBound: a restored round-robin pointer names a
// requester, 0 to n-1. n itself, one past the last, is rejected at every
// size — a multiple of 64 too, where it would index the word past the
// request mask — and the last requester is accepted and re-saved.
func TestRoundRobinLoadStateBound(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 128, 130} {
		a, err := New(RoundRobin, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, next := range []int{-1, n, n + 1} {
			w := &state.Writer{}
			w.Int(next)
			if err := a.LoadState(state.NewReader(w.Bytes())); err == nil {
				t.Errorf("n=%d: round-robin pointer %d accepted", n, next)
			}
		}
		w := &state.Writer{}
		w.Int(n - 1)
		if err := a.LoadState(state.NewReader(w.Bytes())); err != nil {
			t.Fatalf("n=%d: pointer %d: %v", n, n-1, err)
		}
		if !bytes.Equal(savedState(a), w.Bytes()) {
			t.Errorf("n=%d: pointer %d re-saves differently", n, n-1)
		}
		req := make([]uint64, Words(n))
		req[0] = 1
		if got, ok := a.Grant(req); !ok || got != 0 {
			t.Errorf("n=%d: from pointer %d, grant %d,%v, want the wrap to 0", n, n-1, got, ok)
		}
	}
}
