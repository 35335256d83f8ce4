package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// horizon bounds the cycles a contract rig may reach: ledgers are
// allocated up front, so no walk ever grows one from two goroutines.
const horizon = 12_000

// ledger records what one component (or arena element) was given, cycle
// by cycle: a tick, a skipped cycle paid through SkipIdle, or a Commit —
// which the kernel never calls.
type ledger struct {
	ticks, commits, skips [horizon]uint8
}

// check asserts the accounting every walk owes: each cycle of
// [from, upto) was either executed — ticked once, never committed — or
// paid as idle once, never both and never neither, and nothing outside
// that range was touched. A busy component may not be skipped at all.
func (l *ledger) check(t *testing.T, who string, from, upto uint64, busy bool) {
	t.Helper()
	for c := uint64(0); c < horizon; c++ {
		tk, cm, sk := l.ticks[c], l.commits[c], l.skips[c]
		in := c >= from && c < upto
		switch {
		case !in && tk+cm+sk != 0:
			t.Fatalf("%s: cycle %d outside [%d,%d) got tick=%d commit=%d skip=%d", who, c, from, upto, tk, cm, sk)
		case in && (cm != 0 || tk+sk != 1):
			t.Fatalf("%s: cycle %d got tick=%d commit=%d skip=%d, want executed once or skipped once", who, c, tk, cm, sk)
		case in && busy && sk != 0:
			t.Fatalf("%s: busy, yet cycle %d was skipped", who, c)
		}
	}
}

func (l *ledger) skip(from, n uint64) {
	for c := from; c < from+n; c++ {
		l.skips[c]++
	}
}

// stub is the contract rig's component: quiet between the cycles of its
// schedule (never, when busy), and flipping a flag when ticked at or
// after flipAt — which it declares as a wake, as the quiet contract
// demands of a cycle-driven Stopper or Aborter.
type stub struct {
	ledger
	name    string
	wakes   []uint64
	busy    bool
	flipAt  uint64 // 0: never
	flipped bool
	from    uint64   // the cycle it was registered at
	acted   []uint64 // the scheduled cycles it was ticked in
}

func (s *stub) base() *stub           { return s }
func (s *stub) ComponentName() string { return s.name }
func (s *stub) Tick(c uint64) {
	s.ticks[c]++
	if slices.Contains(s.wakes, c) {
		s.acted = append(s.acted, c)
	}
	if s.flipAt != 0 && c >= s.flipAt {
		s.flipped = true
	}
}
func (s *stub) Commit(c uint64) { s.commits[c]++ }
func (s *stub) NextWake(c uint64) (uint64, bool) {
	if s.busy {
		return 0, false
	}
	wake := NeverWake
	if s.flipAt != 0 && !s.flipped {
		wake = s.flipAt
	}
	for _, w := range s.wakes {
		if w > c && w < wake {
			wake = w
		}
	}
	return wake, true
}
func (s *stub) SkipIdle(from, n uint64) { s.skip(from, n) }

type stopStub struct{ *stub }

func (s stopStub) Done() bool { return s.flipped }

type abortStub struct{ *stub }

func (a abortStub) Aborted() bool { return a.flipped }

// ledgerArena is an arena whose elements only input would wake, and none
// arrives: the gates park each after its first cycle and owe it the
// rest, the pool ticks them all or skips the arena as a whole.
type ledgerArena struct {
	name  string
	elems []ledger
}

func (a *ledgerArena) ComponentName() string { return a.name }
func (a *ledgerArena) Len() int              { return len(a.elems) }
func (a *ledgerArena) Tick(c uint64)         { a.TickRange(0, len(a.elems), c) }
func (a *ledgerArena) Commit(c uint64) {
	for i := range a.elems {
		a.elems[i].commits[c]++
	}
}
func (a *ledgerArena) TickRange(lo, hi int, c uint64) {
	for i := lo; i < hi; i++ {
		a.elems[i].ticks[c]++
	}
}
func (a *ledgerArena) TickList(idx []int, c uint64) {
	for _, i := range idx {
		a.elems[i].ticks[c]++
	}
}
func (a *ledgerArena) QuietList(idx []int, c uint64, quiet []int) []int {
	for r := range idx {
		quiet = append(quiet, r)
	}
	return quiet
}
func (a *ledgerArena) ElemSkipIdle(i int, from, n uint64) { a.elems[i].skip(from, n) }
func (a *ledgerArena) NextWake(uint64) (uint64, bool)     { return NeverWake, true }
func (a *ledgerArena) SkipIdle(from, n uint64) {
	for i := range a.elems {
		a.elems[i].skip(from, n)
	}
}

// contractRig is one engine under one walk, with the stubs it runs.
type contractRig struct {
	e     *Engine
	stubs []*stub
	arena *ledgerArena
	calls [][3]uint64 // (executed, stopped, Cycle()) after every entry-point call
}

// add registers a stub, or a stub wrapped as a Stopper or an Aborter.
func (r *contractRig) add(c Component) {
	s := c.(interface{ base() *stub }).base()
	s.from = r.e.Cycle()
	r.stubs = append(r.stubs, s)
	r.e.MustRegister(c)
}

func (r *contractRig) note(executed uint64, stopped bool) {
	s := uint64(0)
	if stopped {
		s = 1
	}
	r.calls = append(r.calls, [3]uint64{executed, s, r.e.Cycle()})
}

func (r *contractRig) step(k int) {
	for i := 0; i < k; i++ {
		r.e.Step()
		r.note(1, false)
	}
}
func (r *contractRig) run(n uint64)      { r.note(r.e.Run(n), false) }
func (r *contractRig) runUntil(n uint64) { r.note(r.e.RunUntil(n)) }

// far is a component that sleeps until cycle 5000: with nothing else
// awake, the window before it is one the gated walks fast-forward over.
func far() *stub { return &stub{name: "far", wakes: []uint64{5000}} }

// TestRunLoopContract holds Engine.run to its contract on every walk:
// the same entry points over the same components return the same
// (executed, stopped, Cycle()), act in the same cycles, and account for
// every cycle exactly once — executed or paid as idle — whether the
// schedule is walked plainly, gated, gated with the gates standing down
// and resuming every few hundred cycles, or by a pool of 1, 2 or 7
// workers, gated or not. It also pins the pool's lifetime: no goroutine before
// the first run, none after Close.
func TestRunLoopContract(t *testing.T) {
	walks := []struct {
		name    string
		gated   bool
		workers int
		down    bool // the gates stand down after every probe window (duty.go)
	}{
		{"ungated", false, 0, false}, // the reference
		{"gated", true, 0, false},
		{"gated-standing-down", true, 0, true},
		{"pool1", true, 1, false},
		{"pool2", true, 2, false},
		{"pool7", true, 7, false},
		{"pool2-ungated", false, 2, false},
	}
	entries := []struct {
		name  string
		stubs func() []Component // fresh ones for every walk
		drive func(r *contractRig)
		want  [][3]uint64 // what the calls return, where the contract says so in numbers
	}{{
		name:  "Step",
		stubs: func() []Component { return []Component{&stub{name: "busy", busy: true}, far()} },
		drive: func(r *contractRig) { r.step(5) },
	}, {
		name: "Run",
		stubs: func() []Component {
			return []Component{&stub{name: "a", wakes: []uint64{3, 500, 501, 7777}}, far()}
		},
		drive: func(r *contractRig) { r.run(300); r.run(9000) },
	}, {
		name: "RunUntil/stopper",
		stubs: func() []Component {
			return []Component{&stub{name: "busy", busy: true},
				stopStub{&stub{name: "stop", flipAt: 137}}, stopStub{&stub{name: "sooner", flipAt: 20}}}
		},
		drive: func(r *contractRig) {
			r.runUntil(horizon) // every Stopper done: polled before cycle 138
			r.runUntil(horizon) // already done: polled before the first cycle
		},
		want: [][3]uint64{{138, 1, 138}, {0, 1, 138}},
	}, {
		name: "RunUntil/aborter",
		stubs: func() []Component {
			return []Component{&stub{name: "busy", busy: true},
				stopStub{&stub{name: "never", flipAt: horizon}}, abortStub{&stub{name: "abort", flipAt: 5}}}
		},
		drive: func(r *contractRig) { r.runUntil(horizon) },
		want:  [][3]uint64{{6, 0, 6}},
	}, {
		name:  "RunUntil/aborter-only",
		stubs: func() []Component { return []Component{abortStub{&stub{name: "abort", flipAt: 3}}} },
		drive: func(r *contractRig) { r.runUntil(horizon) },
		want:  [][3]uint64{{4, 0, 4}},
	}, {
		// The stop falls inside a window the gated walks would skip to
		// cycle 5000: the run ends on the naive schedule's cycle.
		name:  "RunUntil/stop-inside-window",
		stubs: func() []Component { return []Component{stopStub{&stub{name: "stop", flipAt: 137}}, far()} },
		drive: func(r *contractRig) { r.runUntil(horizon) },
		want:  [][3]uint64{{138, 1, 138}},
	}, {
		name: "RunUntil/abort-inside-window",
		stubs: func() []Component {
			return []Component{abortStub{&stub{name: "abort", flipAt: 211}}, far(), &stub{name: "idle"}}
		},
		drive: func(r *contractRig) { r.runUntil(horizon) },
		want:  [][3]uint64{{212, 0, 212}},
	}, {
		// The budget ends mid-window: at cycle 1000, not at the wake.
		name:  "RunUntil/budget-inside-window",
		stubs: func() []Component { return []Component{stopStub{&stub{name: "stop", flipAt: 9000}}, far()} },
		drive: func(r *contractRig) { r.runUntil(1000); r.runUntil(horizon - 1000) },
		want:  [][3]uint64{{1000, 0, 1000}, {8001, 1, 9001}},
	}, {
		name:  "RunUntil/no-stoppers",
		stubs: func() []Component { return []Component{far()} },
		drive: func(r *contractRig) { r.runUntil(6000) },
		want:  [][3]uint64{{6000, 0, 6000}},
	}, {
		name:  "max=0",
		stubs: func() []Component { return []Component{stopStub{&stub{name: "stop", flipAt: 1}}, far()} },
		drive: func(r *contractRig) {
			r.run(0)
			r.runUntil(0)
			r.runUntil(10)
			r.runUntil(0) // done, but a zero budget polls nothing
		},
		want: [][3]uint64{{0, 0, 0}, {0, 0, 0}, {2, 1, 2}, {0, 0, 2}},
	}, {
		name:  "late-registration",
		stubs: func() []Component { return []Component{&stub{name: "busy", busy: true}} },
		drive: func(r *contractRig) {
			r.run(10)
			r.add(&stub{name: "late", wakes: []uint64{15}})
			r.add(&stub{name: "late-busy", busy: true})
			r.run(10)
		},
	}}
	for _, en := range entries {
		var ref *contractRig
		for _, w := range walks {
			t.Run(en.name+"/"+w.name, func(t *testing.T) {
				r := &contractRig{e: New(), arena: &ledgerArena{name: "arena", elems: make([]ledger, 5)}}
				if err := r.e.SetWorkers(w.workers); err != nil {
					t.Fatal(err)
				}
				defer r.e.Close()
				r.e.SetGated(w.gated)
				if w.down {
					r.e.sched.duty.share = 0
				}
				for _, c := range en.stubs() {
					r.add(c)
				}
				r.e.MustRegisterArena(r.arena)
				en.drive(r)

				upto := r.e.Cycle()
				for _, s := range r.stubs {
					s.check(t, s.name, s.from, upto, s.busy)
				}
				for i := range r.arena.elems {
					r.arena.elems[i].check(t, fmt.Sprintf("arena[%d]", i), 0, upto, false)
				}
				if ref == nil {
					if ref = r; en.want != nil && !slices.Equal(r.calls, en.want) {
						t.Errorf("(executed, stopped, Cycle()) per call = %v, want %v", r.calls, en.want)
					}
					return
				}
				if !slices.Equal(r.calls, ref.calls) {
					t.Errorf("(executed, stopped, Cycle()) per call = %v, ungated %v", r.calls, ref.calls)
				}
				for i, s := range r.stubs {
					if want := ref.stubs[i]; !slices.Equal(s.acted, want.acted) || s.flipped != want.flipped {
						t.Errorf("%s acted in cycles %v (flipped=%v), ungated %v (%v)", s.name, s.acted, s.flipped, want.acted, want.flipped)
					}
				}
			})
		}
	}

	t.Run("pool-lifetime", func(t *testing.T) {
		goroutines := func(want int) {
			t.Helper()
			// A goroutine Close has waited for may still be on its way out.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() != want; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
				}
			}
		}
		before := runtime.NumGoroutine()
		e := New()
		e.MustRegister(&stub{name: "busy", busy: true})
		if err := e.SetWorkers(7); err != nil {
			t.Fatal(err)
		}
		goroutines(before) // built, never run: holds none
		e.Run(3)
		goroutines(before + 6)
		e.Close()
		e.Close()
		goroutines(before)
		e.Run(3) // Close released goroutines, not the engine
		goroutines(before + 6)
		if err := e.SetWorkers(0); err != nil {
			t.Fatal(err)
		}
		goroutines(before)
		if e.Run(3); e.Cycle() != 9 {
			t.Errorf("cycle = %d after three runs of 3", e.Cycle())
		}
		if err := e.SetWorkers(-3); err == nil {
			t.Error("a negative worker count was accepted")
		}
	})
}
