package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookWatch is a plain component that records in which cycle it finds
// an arm table's hook switched, and to what. It is walked every cycle,
// on either walk, and the switch happens before a cycle is walked.
type hookWatch struct {
	tbl   *ArmTable
	on    bool
	flips []hookFlip
}

type hookFlip struct {
	cycle uint64
	on    bool
}

func (w *hookWatch) ComponentName() string { return "hookwatch" }
func (w *hookWatch) Commit(uint64)         {}
func (w *hookWatch) Tick(cycle uint64) {
	if on := *w.tbl.Hook() != nil; on != w.on {
		w.on = on
		w.flips = append(w.flips, hookFlip{cycle, on})
	}
}

// dutyRig is a gated engine over one arena of eight elements, the first
// busy elements of which never go quiet, and an arm table whose hook
// the duty cycle switches.
func dutyRig(busy int) (*Engine, *stubArena, *hookWatch) {
	e := New()
	e.SetGated(true)
	a := &stubArena{name: "arena", elems: make([]stubElem, 8), noLog: true}
	for i := 0; i < busy; i++ {
		a.elems[i].busy = NeverWake
	}
	e.MustRegisterArena(a)
	tbl, err := e.ArmTable(nil, nil)
	if err != nil {
		panic(err)
	}
	w := &hookWatch{tbl: tbl, on: true}
	e.MustRegister(w)
	return e, a, w
}

// TestGateStandsDown drives the duty cycle of duty.go: an arena whose
// elements are all busy stands its gate down after one probe window, for
// stretches that double while every probe finds it still busy, with the
// hooks off exactly while the plain schedule walks; a probe that finds
// it mostly idle keeps the gate up and the stretch short again. Every
// element's counter reads the naive schedule's throughout.
func TestGateStandsDown(t *testing.T) {
	e, a, w := dutyRig(8)
	e.Run(1000)
	want := []hookFlip{{64, false}, {320, true}, {384, false}, {896, true}, {960, false}}
	if !slices.Equal(w.flips, want) {
		t.Fatalf("hooks switched at %v, want %v", w.flips, want)
	}
	if d := e.sched.duty; !d.down || d.next != 1984 || d.stretch != 2048 {
		t.Fatalf("after 1000 busy cycles: down=%v until %d, next stretch %d; want down until 1984, next 2048", d.down, d.next, d.stretch)
	}

	// The load falls to one element of eight mid-stretch: the next probe
	// finds the arena below the share, so the gate stays up and parks the
	// seven idle elements, and the stretch is back at its shortest.
	for i := 1; i < len(a.elems); i++ {
		a.elems[i].busy = 0
	}
	ticks := a.ticks
	e.Run(1500)
	if want := append(want, hookFlip{1984, true}); !slices.Equal(w.flips, want) {
		t.Errorf("hooks switched at %v, want %v", w.flips, want)
	}
	if d := e.sched.duty; d.down || d.stretch != minStretch {
		t.Errorf("after a quiet probe: down=%v, next stretch %d; want up and %d", d.down, d.stretch, minStretch)
	}
	// Plain cycles 1000–1983 tick all eight, the first gated cycle all
	// eight, and the rest only the busy one.
	if got, want := a.ticks-ticks, uint64(984*8+8+515); got != want {
		t.Errorf("%d element-cycles ticked in cycles 1000–2499, want %d", got, want)
	}
	for i, c := range a.counts() {
		if c != 2500 {
			t.Errorf("element %d counts %d cycles after 2500", i, c)
		}
	}
}

// pulse wakes every 40th cycle and sends every element of its arena
// input that keeps it busy for eight cycles.
type pulse struct {
	a     *stubArena
	send  *func(i int)
	ticks int
}

func (p *pulse) ComponentName() string { return "pulse" }
func (p *pulse) Tick(c uint64) {
	p.ticks++
	if c%40 == 0 {
		for i := range p.a.elems {
			p.a.elems[i].busy = 8
			(*p.send)(i)
		}
	}
}
func (p *pulse) Commit(uint64)                    {}
func (p *pulse) NextWake(c uint64) (uint64, bool) { return c + 40 - c%40, true }
func (p *pulse) SkipIdle(from, n uint64)          {}

// TestGateProbeCountsSkippedCycles: a probe window averages over its
// cycles, fast-forwarded ones included. Every element is active after
// eight of the nine cycles the engine walks per pulse — from the
// pulse's, whose report wakes them for the next — but it skips the
// other 31 of 40, so the gate stays up: the pulse ticks on its timer
// alone, never in a plain stretch.
func TestGateProbeCountsSkippedCycles(t *testing.T) {
	e := New()
	e.SetGated(true)
	a := &stubArena{name: "arena", elems: make([]stubElem, 8), noLog: true}
	p := &pulse{a: a}
	e.MustRegister(p)
	e.MustRegisterArena(a)
	var elems, pulses []Target
	for i := range a.elems {
		elems, pulses = append(elems, Target{Name: "arena", Elem: i}), append(pulses, Target{Name: "pulse"})
	}
	tbl, err := e.ArmTable(pulses, elems)
	if err != nil {
		t.Fatal(err)
	}
	p.send = tbl.Hook()
	e.Run(2000)
	if p.ticks != 2000/40 || e.StandingDown() {
		t.Errorf("the pulse ticked %d times, standing down %v; want the gate up throughout", p.ticks, e.StandingDown())
	}
	if want := uint64(2000 / 40 * 8 * 8); a.ticks != want {
		t.Errorf("%d element-cycles ticked, want %d: every element in the eight cycles after each pulse", a.ticks, want)
	}
	for i, c := range a.counts() {
		if c != 2000 {
			t.Errorf("element %d counts %d cycles after 2000", i, c)
		}
	}
}

// schedLog is a SchedTrace that keeps the parks and wakes.
type schedLog []string

func (l *schedLog) SchedPark(c uint64, comp string) {
	*l = append(*l, fmt.Sprint("park ", comp, " ", c))
}
func (l *schedLog) SchedWake(c uint64, comp string) {
	*l = append(*l, fmt.Sprint("wake ", comp, " ", c))
}
func (l *schedLog) SchedFastForward(from, to uint64) {}

// TestGateStandDownPaysTheParked forces a stand-down after every probe
// window while seven of eight elements and a sleeping component are
// parked: they are paid their idle cycles before the plain walk ticks
// them, the component's wake is traced like any other, and all of them
// park again in the first cycle the gate is back up.
func TestGateStandDownPaysTheParked(t *testing.T) {
	e, a, _ := dutyRig(1)
	e.sched.duty.share = 0
	sleeper := far()
	e.MustRegister(sleeper)
	var log schedLog
	e.SetSchedTrace(&log)
	e.Run(465)
	if want := []string{"park far 0", "wake far 64", "park far 320", "wake far 384"}; !slices.Equal(log, want) {
		t.Errorf("traced %q, want %q", log, want)
	}
	sleeper.check(t, "far", 0, 465, false)
	// Gated 0–63 (all eight in cycle 0, then the busy one), plain 64–319,
	// gated 320–383, plain again from 384.
	if want := uint64(8 + 63 + 256*8 + 8 + 63 + 81*8); a.ticks != want {
		t.Errorf("%d element-cycles ticked, want %d", a.ticks, want)
	}
	for i, c := range a.counts() {
		if c != 465 {
			t.Errorf("element %d counts %d cycles after 465", i, c)
		}
	}
}

// TestGateStandUpOnRebaseAndUngating: a restore mid-stretch ends a
// stand-down at once, hooks on; an engine that stops gating ends it
// with the hooks off — nothing parks, so a Send calls nothing — and a
// later gated run finds them on from its first cycle.
func TestGateStandUpOnRebaseAndUngating(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, e *Engine)
		on   bool // the hook after end
	}{
		{"LoadState", func(t *testing.T, e *Engine) { restoreCycle(t, e, 0) }, true},
		{"SetGated(false)", func(_ *testing.T, e *Engine) { e.SetGated(false) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, w := dutyRig(8)
			e.Run(100)
			tc.end(t, e)
			if want := []hookFlip{{64, false}}; !slices.Equal(w.flips, want) || (*w.tbl.Hook() != nil) != tc.on {
				t.Errorf("hooks switched at %v and on = %v, want %v and %v", w.flips, *w.tbl.Hook() != nil, want, tc.on)
			}
			if s := e.sched; s != nil && (s.duty.down || s.duty.from != 0 || s.duty.next != probeCycles || s.duty.stretch != minStretch) {
				t.Errorf("after %s: %+v, want up and probing afresh", tc.name, s.duty)
			}
			e.SetGated(true)
			c := e.Cycle()
			e.Run(1)
			if want := []hookFlip{{64, false}, {c, true}}; !slices.Equal(w.flips, want) {
				t.Errorf("a gated run after %s switched the hooks at %v, want %v", tc.name, w.flips, want)
			}
		})
	}
}

// spanArena is an arena whose first busy elements never go quiet and
// whose others are quiet whenever asked, safe to tick from several
// workers at once: each element keeps its own count, and every
// TickRange notes whether it covered part of the arena only — a pool's
// span — and the helpers the stand-down pools hold.
type spanArena struct {
	name    string
	counts  []uint64
	busy    int
	partial atomic.Int64
	peak    atomic.Int32
}

func (a *spanArena) ComponentName() string { return a.name }
func (a *spanArena) Len() int              { return len(a.counts) }
func (a *spanArena) Tick(c uint64)         { a.TickRange(0, len(a.counts), c) }
func (a *spanArena) Commit(uint64)         {}
func (a *spanArena) TickRange(lo, hi int, c uint64) {
	if hi-lo < len(a.counts) {
		a.partial.Add(1)
	}
	for h := helpers.Load(); ; {
		p := a.peak.Load()
		if h <= p || a.peak.CompareAndSwap(p, h) {
			break
		}
	}
	for i := lo; i < hi; i++ {
		a.counts[i]++
	}
}
func (a *spanArena) TickList(idx []int, c uint64) {
	for _, i := range idx {
		a.counts[i]++
	}
}
func (a *spanArena) QuietList(idx []int, c uint64, quiet []int) []int {
	for r, i := range idx {
		if i >= a.busy {
			quiet = append(quiet, r)
		}
	}
	return quiet
}
func (a *spanArena) ElemSkipIdle(i int, from, n uint64) { a.counts[i] += n }

// stopAt is a Stopper done once it has ticked cycle at.
type stopAt struct {
	at   uint64
	done bool
}

func (s *stopAt) ComponentName() string { return "stop" }
func (s *stopAt) Tick(c uint64)         { s.done = s.done || c >= s.at }
func (s *stopAt) Commit(uint64)         {}
func (s *stopAt) Done() bool            { return s.done }

// shareEngine is a gated engine over a 256-element arena — four
// workers' worth of poolSpan — whose first busy elements never go quiet.
func shareEngine(name string, busy int) (*Engine, *spanArena) {
	e := New()
	e.SetGated(true)
	a := &spanArena{name: name, counts: make([]uint64, 4*poolSpan), busy: busy}
	e.MustRegisterArena(a)
	return e, a
}

// busyEngine is a shareEngine that never goes quiet, with a Stopper done
// after cycle stop.
func busyEngine(name string, stop uint64) (*Engine, *spanArena) {
	e, a := shareEngine(name, 4*poolSpan)
	e.MustRegister(&stopAt{at: stop})
	return e, a
}

// settledGoroutines waits for the goroutine count to come back to want
// at most: a goroutine a pool has waited for — or an earlier test's —
// may still be on its way out.
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d at most", runtime.NumGoroutine(), want)
		}
	}
}

// TestStandDownPoolLifetime: a gated engine walks its
// gated cycles and its stand-down stretches on a crew where the host has
// a second processor — and only there, so that a one-processor run never
// starts one — yet
// holds no goroutine and no helper between runs, after a run that ends
// with its budget or one a Stopper ends inside a stretch alike. Every
// element counts every cycle either way.
func TestStandDownPoolLifetime(t *testing.T) {
	e, a := busyEngine("arena", 700)
	before := runtime.NumGoroutine()
	e.Run(500) // stands down at 64, up at 320, down again at 384 until 896
	settledGoroutines(t, before)
	if executed, stopped := e.RunUntil(10_000); executed != 201 || !stopped || !e.StandingDown() {
		t.Fatalf("RunUntil: %d cycles, stopped %v, standing down %v; want 201, stopped inside the stretch", executed, stopped, e.StandingDown())
	}
	settledGoroutines(t, before)
	if n := helpers.Load(); n != 0 {
		t.Errorf("%d helpers held between runs", n)
	}
	pooled := e.PooledCycles()
	if multi := runtime.GOMAXPROCS(0) > 1; (pooled > 0) != multi || (a.partial.Load() > 0) != multi {
		t.Errorf("GOMAXPROCS %d: %d cycles walked on a pool, %d partial arena ticks", runtime.GOMAXPROCS(0), pooled, a.partial.Load())
	}
	if pooled != 0 && pooled != 701 {
		t.Errorf("%d cycles walked on a pool, want all 701: the gated ones and the stretches", pooled)
	}
	for i, c := range a.counts {
		if c != 701 {
			t.Fatalf("element %d counts %d cycles after 701", i, c)
		}
	}
}

// TestStandDownPoolBudget: engines that stand down at the same time
// share one budget of procs()−1 helpers. Each of two 256-element
// engines alone would take all of it (up to three); together they never
// hold more, and between them they walk a pool where there is a budget.
func TestStandDownPoolBudget(t *testing.T) {
	limit := int32(procs() - 1)
	var arenas [2]*spanArena
	var pooled [2]uint64
	var wg sync.WaitGroup
	for k := range arenas {
		e, a := busyEngine(fmt.Sprint("arena", k), NeverWake)
		arenas[k] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				e.Run(300)
			}
			pooled[k] = e.PooledCycles()
		}()
	}
	wg.Wait()
	for k, a := range arenas {
		if p := a.peak.Load(); p > limit {
			t.Errorf("engine %d saw %d helpers held, budget %d", k, p, limit)
		}
		for i, c := range a.counts {
			if c != 6000 {
				t.Fatalf("engine %d element %d counts %d cycles after 6000", k, i, c)
			}
		}
	}
	if (pooled[0]+pooled[1] > 0) != (limit > 0) {
		t.Errorf("cycles walked on a pool %v with a budget of %d", pooled, limit)
	}
	if n := helpers.Load(); n != 0 {
		t.Errorf("%d helpers held after both runs", n)
	}
}

// TestHelperBudgetShared: goroutines taking and giving back helpers
// with TakeHelpers and ReturnHelpers — as sweep points' fork crews do —
// while two engines' stand-down pools hire from the same budget never
// hold more than procs()−1 between them, and the budget is whole
// again once all have finished.
func TestHelperBudgetShared(t *testing.T) {
	limit := procs() - 1
	var held, peak atomic.Int32
	note := func(n int32) {
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	var arenas [2]*spanArena
	for k := range arenas {
		e, a := busyEngine(fmt.Sprint("arena", k), NeverWake)
		arenas[k] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				e.Run(300)
			}
		}()
	}
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				n := TakeHelpers(1 + (g+i)%3)
				note(held.Add(int32(n)))
				note(helpers.Load())
				held.Add(-int32(n))
				ReturnHelpers(n)
			}
		}()
	}
	wg.Wait()
	for k, a := range arenas {
		note(a.peak.Load())
		for i, c := range a.counts {
			if c != 1500 {
				t.Fatalf("engine %d element %d counts %d cycles after 1500", k, i, c)
			}
		}
	}
	if p := peak.Load(); p > int32(limit) {
		t.Errorf("%d helpers held at once, budget %d", p, limit)
	}
	if n := TakeHelpers(runtime.GOMAXPROCS(0)); n != limit {
		t.Errorf("took %d helpers after every caller finished, want the whole budget of %d", n, limit)
	} else {
		ReturnHelpers(n)
	}
	if n := TakeHelpers(0) + TakeHelpers(-1); n != 0 {
		t.Errorf("took %d helpers asking for none", n)
	}
}

// withProcs runs the rest of the test at GOMAXPROCS procs.
func withProcs(t *testing.T, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestGateStandsDownForACrew: the share a stand-down needs is
// standDownShare whatever the crew, since a crew walks the gated cycles
// as well as the plain ones. An arena 140/256 active, above 33/64,
// stands down with a crew of two or four, on one processor and with the
// budget held elsewhere — by a sweep point's fork crew, say — alike; at
// 100/256 its gates stay up for every crew. Either walk is on the crew
// the host and the budget have: helpers a fork crew holds shrink it,
// never past the budget, and GOMAXPROCS above the host's processors
// adds none. A share of 64 stands down only where every
// element is active in every cycle of the window; one above 64 never
// does.
func TestGateStandsDownForACrew(t *testing.T) {
	for _, tc := range []struct {
		name        string
		procs, held int
		busy, share int
		down        bool
	}{
		{"crew-of-2", 2, 0, 140, standDownShare, true},
		{"one-processor", 1, 0, 140, standDownShare, true},
		{"budget-held", 2, 1, 140, standDownShare, true},
		{"below-a-crew-of-2", 2, 0, 100, standDownShare, false},
		{"crew-of-4", 4, 0, 100, standDownShare, false},
		{"fork-crew-leaves-2", 4, 2, 140, standDownShare, true},
		{"fork-crew-leaves-2-of-4", 4, 2, 100, standDownShare, false},
		{"never", 4, 0, 4 * poolSpan, 65, false},
		{"share-64-all-busy", 2, 0, 4 * poolSpan, 64, true},
		{"share-65-all-busy", 2, 0, 4 * poolSpan, 65, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
			// The budget counts no more processors than the host has: on
			// a smaller host the fork crew holds what there is.
			host := procs()
			held := min(tc.held, host-1)
			n := TakeHelpers(held)
			defer ReturnHelpers(n)
			if n != held {
				t.Fatalf("took %d helpers, want %d", n, held)
			}
			e, a := shareEngine("arena", tc.busy)
			e.sched.duty.share = tc.share
			e.Run(100) // one probe window, and 36 cycles of what it decided
			crew := min(host-held, 4)
			if n := e.crewSize(helpers.Load()); n != crew {
				t.Errorf("crew size %d with %d helpers held, want %d", n, held, crew)
			}
			if e.StandingDown() != tc.down {
				t.Errorf("standing down %v, want %v", e.StandingDown(), tc.down)
			}
			if pooled := e.PooledCycles(); (crew > 1) != (pooled == 100) || crew == 1 && pooled != 0 {
				t.Errorf("%d cycles walked on a crew of %d, want all or none", pooled, crew)
			}
			if p := a.peak.Load(); p > int32(host-1) {
				t.Errorf("%d helpers held during the run, budget %d", p, host-1)
			}
			if n := helpers.Load(); n != int32(held) {
				t.Errorf("%d helpers held after the run, want the test's %d", n, held)
			}
			for i, c := range a.counts {
				if c != 100 {
					t.Fatalf("element %d counts %d cycles after 100", i, c)
				}
			}
		})
	}
}

// latch is a component that blocks its walker in cycle at, once, until
// the test lets it go.
type latch struct {
	at             uint64
	paused, resume chan struct{}
}

func (l *latch) ComponentName() string { return "latch" }
func (l *latch) Commit(uint64)         {}
func (l *latch) Tick(c uint64) {
	if c == l.at {
		close(l.paused)
		<-l.resume
	}
}

// TestGateStretchGoesOnWithoutItsCrew: a stand-down gives its crew
// back when its run ends inside the stretch; if another platform holds
// the budget when the next run begins, the stretch goes on plainly on
// the caller's goroutine, and once the budget is free again the next
// run walks it on a crew anew.
func TestGateStretchGoesOnWithoutItsCrew(t *testing.T) {
	withProcs(t, 2)
	a, aa := shareEngine("a", 200)
	b, _ := shareEngine("b", 200)
	l := &latch{at: 100, paused: make(chan struct{}), resume: make(chan struct{})}
	b.MustRegister(l)

	a.Run(100) // stands down at 64 on a crew of two, ends inside the stretch
	if !a.StandingDown() || a.PooledCycles() != 100 || helpers.Load() != 0 {
		t.Fatalf("after 100 cycles: standing down %v, %d cycles on a crew, %d helpers held; want down, 100, none held", a.StandingDown(), a.PooledCycles(), helpers.Load())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Run(200) // keeps its helper while the latch holds it
	}()
	<-l.paused
	if n := helpers.Load(); n != 1 {
		t.Fatalf("%d helpers held by the paused run, want 1", n)
	}
	a.Run(10)
	if !a.StandingDown() || a.PooledCycles() != 100 {
		t.Errorf("with the budget held: standing down %v, %d cycles on a crew; want the stretch going on without one", a.StandingDown(), a.PooledCycles())
	}
	close(l.resume)
	<-done
	if n := helpers.Load(); n != 0 {
		t.Errorf("%d helpers held between runs", n)
	}
	a.Run(100)
	if !a.StandingDown() || a.PooledCycles() != 200 {
		t.Errorf("with the budget free again: standing down %v, %d cycles on a crew; want down, 200", a.StandingDown(), a.PooledCycles())
	}
	for i, c := range aa.counts {
		if c != 210 {
			t.Fatalf("element %d counts %d cycles after 210", i, c)
		}
	}
}
