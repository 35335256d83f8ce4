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
	tbl, err := e.ArmTable(nil)
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

// pulse wakes every 40th cycle and hands every element of its arena
// input that keeps it busy for eight cycles.
type pulse struct {
	a     *stubArena
	arm   func()
	ticks int
}

func (p *pulse) ComponentName() string { return "pulse" }
func (p *pulse) Tick(c uint64) {
	p.ticks++
	if c%40 == 0 {
		for i := range p.a.elems {
			p.a.elems[i].busy = 8
		}
		p.arm()
	}
}
func (p *pulse) Commit(uint64)                    {}
func (p *pulse) NextWake(c uint64) (uint64, bool) { return c + 40 - c%40, true }
func (p *pulse) SkipIdle(from, n uint64)          {}

// TestGateProbeCountsSkippedCycles: a probe window averages over its
// cycles, fast-forwarded ones included. Every element is active in seven
// of the nine cycles the engine walks per pulse, but it skips the other
// 31 of 40, so the gate stays up: the pulse ticks on its timer alone,
// never in a plain stretch.
func TestGateProbeCountsSkippedCycles(t *testing.T) {
	e := New()
	e.SetGated(true)
	a := &stubArena{name: "arena", elems: make([]stubElem, 8), noLog: true}
	p := &pulse{a: a}
	e.MustRegister(p) // ahead of the arena whose input it stages
	e.MustRegisterArena(a)
	var targets []Target
	for i := range a.elems {
		targets = append(targets, Target{Name: "arena", Elem: i})
	}
	p.arm, _ = e.Armer(targets...)
	e.Run(2000)
	if p.ticks != 2000/40 || e.StandingDown() {
		t.Errorf("the pulse ticked %d times, standing down %v; want the gate up throughout", p.ticks, e.StandingDown())
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

// TestGateStandUpOnRebaseAndUngating: a new timeline and an engine that
// stops gating both end a stand-down at once, hooks on — a later gated
// run must never find them off.
func TestGateStandUpOnRebaseAndUngating(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(e *Engine)
	}{
		{"Reset", func(e *Engine) { e.Reset() }},
		{"SetGated(false)", func(e *Engine) { e.SetGated(false) }},
		{"SetWorkers(2)", func(e *Engine) { _ = e.SetWorkers(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, w := dutyRig(8)
			defer e.Close()
			e.Run(100)
			tc.end(e)
			if want := []hookFlip{{64, false}}; !slices.Equal(w.flips, want) || *w.tbl.Hook() == nil {
				t.Errorf("hooks switched at %v and on = %v, want %v and on again", w.flips, *w.tbl.Hook() != nil, want)
			}
			if s := e.sched; s != nil && (s.duty.down || s.duty.from != 0 || s.duty.next != probeCycles || s.duty.stretch != minStretch) {
				t.Errorf("after %s: %+v, want up and probing afresh", tc.name, s.duty)
			}
		})
	}
}

// spanArena is an arena of elements that never go quiet, safe to tick
// from several workers at once: each element keeps its own count, and
// every TickRange notes whether it covered part of the arena only — a
// pool's span — and the helpers the stand-down pools hold.
type spanArena struct {
	name    string
	counts  []uint64
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
func (a *spanArena) QuietList(idx []int, c uint64, quiet []int) []int { return quiet }
func (a *spanArena) ElemSkipIdle(i int, from, n uint64)               { a.counts[i] += n }

// stopAt is a Stopper done once it has ticked cycle at.
type stopAt struct {
	at   uint64
	done bool
}

func (s *stopAt) ComponentName() string { return "stop" }
func (s *stopAt) Tick(c uint64)         { s.done = s.done || c >= s.at }
func (s *stopAt) Commit(uint64)         {}
func (s *stopAt) Done() bool            { return s.done }

// busyEngine is a gated engine over a 256-element arena that never goes
// quiet — four workers' worth of poolSpan — and a Stopper done after
// cycle stop.
func busyEngine(name string, stop uint64) (*Engine, *spanArena) {
	e := New()
	e.SetGated(true)
	a := &spanArena{name: name, counts: make([]uint64, 4*poolSpan)}
	e.MustRegisterArena(a)
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

// TestStandDownPoolLifetime: a gated engine without workers walks its
// stand-down stretches on a pool where the host has a second processor
// — and only there, so that a one-processor run never starts one — yet
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
	if want := uint64(701 - 64 - 64); pooled != 0 && pooled != want {
		t.Errorf("%d cycles walked on a pool, want the %d of the stretches", pooled, want)
	}
	for i, c := range a.counts {
		if c != 701 {
			t.Fatalf("element %d counts %d cycles after 701", i, c)
		}
	}
}

// TestStandDownPoolBudget: engines that stand down at the same time
// share one budget of GOMAXPROCS−1 helpers. Each of two 256-element
// engines alone would take all of it (up to three); together they never
// hold more, and between them they walk a pool where there is a budget.
func TestStandDownPoolBudget(t *testing.T) {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
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
