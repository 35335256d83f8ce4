package engine

import (
	"slices"
	"testing"

	"nocemu/internal/state"
)

// cycleCounter is the simplest honest Quiescable: it owns one
// derivable per-cycle counter. Parked, the kernel owes it the skipped
// cycles through SkipIdle — so count must always equal the cycles the
// naive schedule would have executed.
type cycleCounter struct {
	name  string
	count uint64
	ticks uint64
}

func (c *cycleCounter) ComponentName() string { return c.name }
func (c *cycleCounter) Tick(cycle uint64)     { c.count++; c.ticks++ }
func (c *cycleCounter) Commit(cycle uint64)   {}
func (c *cycleCounter) NextWake(cycle uint64) (uint64, bool) {
	return NeverWake, true
}
func (c *cycleCounter) SkipIdle(from, n uint64) { c.count += n }

// alarm sleeps between the wake cycles of its schedule; each wake it
// ticks once (recording the cycle) and goes back to sleep.
type alarm struct {
	name    string
	wakes   []uint64
	tickedC []uint64
	skipped uint64
}

func (a *alarm) ComponentName() string { return a.name }
func (a *alarm) Tick(cycle uint64) {
	for _, w := range a.wakes {
		if w == cycle {
			a.tickedC = append(a.tickedC, cycle)
		}
	}
}
func (a *alarm) Commit(cycle uint64) {}
func (a *alarm) NextWake(cycle uint64) (uint64, bool) {
	for _, w := range a.wakes {
		if w > cycle {
			return w, true
		}
	}
	return NeverWake, true
}
func (a *alarm) SkipIdle(from, n uint64) { a.skipped += n }

// TestGatedRunFastForwards checks that an all-quiet schedule executes
// by fast-forward: the cycle counter still sees every cycle (via
// SkipIdle) while almost nothing is actually walked.
func TestGatedRunFastForwards(t *testing.T) {
	e := New()
	e.SetGated(true)
	c := &cycleCounter{name: "c"}
	e.MustRegister(c)
	if n := e.Run(10_000); n != 10_000 {
		t.Fatalf("Run executed %d, want 10000", n)
	}
	if e.Cycle() != 10_000 {
		t.Errorf("cycle = %d, want 10000", e.Cycle())
	}
	if c.count != 10_000 {
		t.Errorf("counter saw %d cycles, want 10000", c.count)
	}
	if c.ticks > 10 {
		t.Errorf("counter was walked %d times; gating should have parked it", c.ticks)
	}
}

// TestGatedAlarmScheduleExact checks wake precision and skip
// accounting: the alarm ticks at exactly its scheduled cycles and the
// executed + skipped bookkeeping covers every cycle of the run.
func TestGatedAlarmScheduleExact(t *testing.T) {
	e := New()
	e.SetGated(true)
	a := &alarm{name: "a", wakes: []uint64{3, 500, 501, 7777}}
	e.MustRegister(a)
	e.Run(10_000)
	want := []uint64{3, 500, 501, 7777}
	if len(a.tickedC) != len(want) {
		t.Fatalf("alarm ticked at %v, want %v", a.tickedC, want)
	}
	for i := range want {
		if a.tickedC[i] != want[i] {
			t.Fatalf("alarm ticked at %v, want %v", a.tickedC, want)
		}
	}
}

// TestGatedResetMatchesNaive runs the same run/Reset/run sequence on a
// gated and a naive engine: the gated kernel must settle outstanding
// skip debt at Reset and restart its watermarks on the new timeline,
// so the counters agree at every observation point.
func TestGatedResetMatchesNaive(t *testing.T) {
	build := func(gated bool) (*Engine, *cycleCounter, *alarm) {
		e := New()
		e.SetGated(gated)
		c := &cycleCounter{name: "c"}
		a := &alarm{name: "a", wakes: []uint64{60, 180}}
		e.MustRegister(c)
		e.MustRegister(a)
		return e, c, a
	}
	run := func(gated bool) (counts [2]uint64, ticked [2]int) {
		e, c, a := build(gated)
		e.Run(100)
		counts[0], ticked[0] = c.count, len(a.tickedC)
		e.Reset()
		e.Run(200)
		counts[1], ticked[1] = c.count, len(a.tickedC)
		return
	}
	wantCounts, wantTicked := run(false)
	gotCounts, gotTicked := run(true)
	if gotCounts != wantCounts {
		t.Errorf("counter after run/Reset/run = %v, naive %v", gotCounts, wantCounts)
	}
	if gotTicked != wantTicked {
		t.Errorf("alarm ticks after run/Reset/run = %v, naive %v", gotTicked, wantTicked)
	}
	if wantCounts != [2]uint64{100, 300} {
		t.Errorf("naive baseline counters = %v, want [100 300]", wantCounts)
	}
}

// armCaller is a non-quiescable component whose Tick fires an arm
// closure at a chosen cycle — the shape of a link Send hook.
type armCaller struct {
	name   string
	at     uint64
	armFn  func()
	called bool
}

func (p *armCaller) ComponentName() string { return p.name }
func (p *armCaller) Tick(cycle uint64) {
	if cycle == p.at && p.armFn != nil {
		p.armFn()
		p.called = true
	}
}
func (p *armCaller) Commit(cycle uint64) {}

// tickSink records every cycle it is walked and otherwise reports
// input-only quiescence (NeverWake) — only an arm hook can wake it.
type tickSink struct {
	name    string
	tickedC []uint64
}

func (s *tickSink) ComponentName() string { return s.name }
func (s *tickSink) Tick(cycle uint64)     { s.tickedC = append(s.tickedC, cycle) }
func (s *tickSink) Commit(cycle uint64)   {}
func (s *tickSink) NextWake(cycle uint64) (uint64, bool) {
	return NeverWake, true
}
func (s *tickSink) SkipIdle(from, n uint64) {}

// TestGatedArmWakesSameCycle checks the arm-on-input rule in both
// schedule orders: a NeverWake-parked consumer must tick exactly once
// in the very cycle a producer's hook arms it, whether the producer's
// slot comes before or after the consumer's in the walk.
func TestGatedArmWakesSameCycle(t *testing.T) {
	for _, producerFirst := range []bool{true, false} {
		e := New()
		e.SetGated(true)
		consumer := &tickSink{name: "consumer"}
		producer := &armCaller{name: "producer", at: 40}
		if producerFirst {
			e.MustRegister(producer)
			e.MustRegister(consumer)
		} else {
			e.MustRegister(consumer)
			e.MustRegister(producer)
		}
		arm, ok := e.Armer(Target{Name: "consumer"})
		if !ok {
			t.Fatal("Armer did not resolve consumer")
		}
		producer.armFn = arm
		e.Run(100)
		if !producer.called {
			t.Fatal("producer never fired the arm hook")
		}
		// Cycle 0 is the honest post-entry evaluation, cycle 40 the
		// armed wake; nothing else may have walked the sink.
		want := []uint64{0, 40}
		if len(consumer.tickedC) != len(want) ||
			consumer.tickedC[0] != want[0] || consumer.tickedC[1] != want[1] {
			t.Errorf("producerFirst=%v: consumer ticked at %v, want %v",
				producerFirst, consumer.tickedC, want)
		}
	}
}

// stubArena is a minimal Arena: each element owns one derivable
// per-cycle counter (count = cycles executed + cycles paid through
// ElemSkipIdle, so it must always equal the cycles a naive schedule
// would have walked), is busy for a settable number of cycles, and can
// run a hook from its Tick — the shape of a switch staging a flit for
// a neighbour.
type stubArena struct {
	name    string
	elems   []stubElem
	batches int      // TickList + QuietList calls
	skips   int      // ElemSkipIdle calls: the one call a gate makes per element
	ticks   uint64   // element-cycles ticked
	walked  [][2]int // every tick as (cycle, element), in walk order
	noLog   bool     // record no cycles (the benchmark allocates nothing)
}

type stubElem struct {
	busy     uint64
	count    uint64
	ticked   []uint64
	onTick   func(cycle uint64)
	onReport func(cycle uint64)
}

func (a *stubArena) ComponentName() string { return a.name }
func (a *stubArena) Len() int              { return len(a.elems) }
func (a *stubArena) Tick(cycle uint64)     { a.TickRange(0, len(a.elems), cycle) }
func (a *stubArena) Commit(cycle uint64)   {}
func (a *stubArena) TickRange(lo, hi int, cycle uint64) {
	for i := lo; i < hi; i++ {
		a.TickList([]int{i}, cycle)
	}
}
func (a *stubArena) TickList(idx []int, cycle uint64) {
	a.batches++
	a.ticks += uint64(len(idx))
	for _, i := range idx {
		el := &a.elems[i]
		el.count++
		if !a.noLog {
			el.ticked = append(el.ticked, cycle)
			a.walked = append(a.walked, [2]int{int(cycle), i})
		}
		if el.onTick != nil {
			el.onTick(cycle)
		}
	}
}
func (a *stubArena) QuietList(idx []int, cycle uint64, quiet []int) []int {
	a.batches++
	for r, i := range idx {
		el := &a.elems[i]
		if el.onReport != nil {
			el.onReport(cycle)
		}
		if el.busy > 0 {
			el.busy--
		}
		if el.busy == 0 {
			quiet = append(quiet, r)
		}
	}
	return quiet
}
func (a *stubArena) ElemSkipIdle(i int, from, n uint64) {
	a.skips++
	a.elems[i].count += n
}

func (a *stubArena) counts() []uint64 {
	out := make([]uint64, len(a.elems))
	for i := range a.elems {
		out[i] = a.elems[i].count
	}
	return out
}

// gatedArena returns a gated engine over a producer component and an
// n-element stub arena, registered in that order (producers of an
// arena's input tick ahead of it).
func gatedArena(n int) (*Engine, *armCaller, *stubArena) {
	e := New()
	e.SetGated(true)
	producer := &armCaller{name: "producer"}
	a := &stubArena{name: "arena", elems: make([]stubElem, n)}
	e.MustRegister(producer)
	e.MustRegisterArena(a)
	return e, producer, a
}

// TestGateElementArmedMidWalk drives the arm-on-input rule at element
// level: the producer arms element 0, whose Tick in turn arms element 2
// while the arena's walk is under way. Both must tick in that very
// cycle; element 1, parked throughout, must never be ticked; and every
// element's counter must still read the naive schedule's.
func TestGateElementArmedMidWalk(t *testing.T) {
	e, producer, a := gatedArena(3)
	arm0, ok0 := e.Armer(Target{Name: "arena", Elem: 0})
	arm2, ok2 := e.Armer(Target{Name: "arena", Elem: 2})
	if _, bad := e.Armer(Target{Name: "arena", Elem: 3}); !ok0 || !ok2 || bad {
		t.Fatalf("Armer resolution: elem0=%v elem2=%v out-of-range=%v", ok0, ok2, bad)
	}
	producer.at = 20
	producer.armFn = func() { a.elems[0].busy = 2; arm0() }
	a.elems[0].onTick = func(cycle uint64) {
		if cycle == 20 {
			a.elems[2].busy = 1
			arm2()
		}
	}
	e.Run(50)
	// Cycle 0 is every element's honest first evaluation. Element 2 is
	// quiet again once cycle 20 commits and parks at once; element 0 is
	// busy for two cycles and parks in the second.
	if got := a.elems[1].ticked; !slices.Equal(got, []uint64{0}) {
		t.Errorf("parked element 1 ticked at %v, want only cycle 0", got)
	}
	if got := a.elems[2].ticked; !slices.Equal(got, []uint64{0, 20}) {
		t.Errorf("element 2 ticked at %v, want cycle 0 and the cycle it was armed in", got)
	}
	if got := a.elems[0].ticked; !slices.Equal(got, []uint64{0, 20, 21}) {
		t.Errorf("element 0 ticked at %v, want cycle 0 and its two busy cycles", got)
	}
	if got := a.counts(); !slices.Equal(got, []uint64{50, 50, 50}) {
		t.Errorf("element counters after 50 cycles = %v, want all 50", got)
	}
}

// TestGateSettlePaysOnce enters and leaves the kernel repeatedly —
// each exit settles — and checks a parked element is paid every idle
// cycle exactly once, without being re-activated by the entries.
func TestGateSettlePaysOnce(t *testing.T) {
	e, _, a := gatedArena(3)
	for run := uint64(1); run <= 5; run++ {
		e.Run(64)
		if got, want := a.counts(), []uint64{64 * run, 64 * run, 64 * run}; !slices.Equal(got, want) {
			t.Fatalf("after %d runs of 64 cycles: element counters %v, want %v", run, got, want)
		}
	}
	for i := range a.elems {
		if got := a.elems[i].ticked; !slices.Equal(got, []uint64{0}) {
			t.Errorf("element %d ticked at %v; kernel entries must not re-arm arena elements", i, got)
		}
	}
}

// TestGateRebase covers the one step Reset and LoadState share: debt is
// settled on the old timeline, watermarks restart on the new one, and
// the parked set is re-derived from the elements' own state — which a
// restore replaces after the engine section has loaded.
func TestGateRebase(t *testing.T) {
	e, _, a := gatedArena(3)
	e.Run(100)
	e.Reset()
	if e.Cycle() != 0 {
		t.Fatalf("cycle after Reset = %d, want 0", e.Cycle())
	}
	e.Run(30)
	if got := a.counts(); !slices.Equal(got, []uint64{130, 130, 130}) {
		t.Errorf("element counters after run/Reset/run = %v, want all 130", got)
	}

	w := state.NewWriter()
	w.U64(5000)
	if err := e.LoadState(state.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	a.elems[1].busy = 3 // the arena's section loads after the engine's
	for i := range a.elems {
		a.elems[i].ticked = nil
	}
	e.Run(40)
	if e.Cycle() != 5040 {
		t.Fatalf("cycle after LoadState+Run = %d, want 5040", e.Cycle())
	}
	if got := a.counts(); !slices.Equal(got, []uint64{170, 170, 170}) {
		t.Errorf("element counters after restore = %v, want all 170", got)
	}
	for _, i := range []int{0, 2} {
		if got := a.elems[i].ticked; !slices.Equal(got, []uint64{5000}) {
			t.Errorf("quiet element %d ticked at %v, want only the restored cycle", i, got)
		}
	}
	if got := a.elems[1].ticked; !slices.Equal(got, []uint64{5000, 5001, 5002}) {
		t.Errorf("busy element 1 ticked at %v, want its three busy cycles", got)
	}
}

// TestGateParksOnTheCommitsWord: the gate asks nobody. An element leaves
// the walk in the very cycle its arena's quiet report names it; a busy
// element costs the gate no call of its own — the arena is called at
// most twice a cycle whatever it holds, and once per element only to pay
// idle cycles, at a wake or a settle; closing the list up keeps its
// order; and an element armed during the report stays on the list.
func TestGateParksOnTheCommitsWord(t *testing.T) {
	e, producer, a := gatedArena(6)
	arm := make([]func(), len(a.elems))
	for i := range arm {
		arm[i], _ = e.Armer(Target{Name: "arena", Elem: i})
	}
	producer.at = 10
	producer.armFn = func() {
		for _, w := range []struct {
			i    int
			busy uint64
		}{{1, 3}, {3, 1}, {4, 2}, {5, 3}} {
			a.elems[w.i].busy = w.busy
			arm[w.i]()
		}
	}
	a.elems[1].onReport = func(cycle uint64) {
		if cycle == 11 {
			a.elems[2].busy = 1
			arm[2]() // parked since cycle 0; lands behind the list being reported
		}
	}
	e.Run(10)
	a.batches, a.skips, a.walked = 0, 0, nil
	e.Run(4)
	want := [][2]int{{10, 1}, {10, 3}, {10, 4}, {10, 5}, {11, 1}, {11, 4}, {11, 5}, {12, 1}, {12, 5}, {12, 2}}
	if !slices.Equal(a.walked, want) {
		t.Errorf("walk from cycle 10 on, as (cycle, element): %v, want %v", a.walked, want)
	}
	// The four elements armed in cycle 10 were settled up to it by the
	// first Run; element 2 wakes a cycle later with one to pay, and the
	// settle at the end of the run pays all six, parked by then. Nothing
	// grows with the ten element-cycles spent busy.
	if a.skips != 1+6 || a.batches > 2*4 {
		t.Errorf("%d ElemSkipIdle calls and %d batch calls in 4 cycles, want 7 and at most 8", a.skips, a.batches)
	}
	// Element 2 was armed after cycle 11's Ticks: it is paid up to cycle
	// 10 and ticks from 12. Arming during the quiet report is exact only
	// for an element that owes nothing per cycle; nothing in the platform
	// arms there. The others read the naive count.
	for _, i := range []int{0, 1, 3, 4, 5} {
		if got := a.elems[i].count; got != 14 {
			t.Errorf("element %d counts %d cycles after 14", i, got)
		}
	}
}

// TestArmTable: a Send on wire i queues the wake of its reader — an
// arena element or a plain component — for the next cycle, applied after
// the quiet report: paid through the sending cycle, not reported on in
// it, ticked in the one after. What Also added is armed in the sending
// cycle itself.
func TestArmTable(t *testing.T) {
	e := New()
	e.SetGated(true)
	sink, dog := &tickSink{name: "sink"}, &tickSink{name: "dog"}
	consumers := &stubArena{name: "consumers", elems: make([]stubElem, 2)}
	step := &armCaller{name: "step"} // the producer
	e.MustRegister(step)
	e.MustRegister(sink)
	e.MustRegisterArena(consumers)
	e.MustRegister(dog)
	if _, err := e.ArmTable([]Target{{Name: "nobody"}}); err == nil {
		t.Error("a table with an unknown consumer was accepted")
	}
	tbl, err := e.ArmTable([]Target{{Name: "consumers", Elem: 1}, {Name: "sink"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Also(1, "dog"); err != nil {
		t.Fatal(err)
	}
	if tbl.Also(2, "dog") == nil || tbl.Also(0, "consumers") == nil || tbl.Also(0, "nobody") == nil {
		t.Error("Also accepted a row out of range, an arena or an unknown name")
	}
	tbl.Send(0)              // before the first kernel entry there are no gates: a no-op
	var reported [][2]uint64 // (cycle, consumer element)
	for i := range consumers.elems {
		consumers.elems[i].onTick = func(cycle uint64) {
			if got := consumers.elems[i].count; got != cycle+1 {
				t.Errorf("cycle %d: consumer %d ticks having counted %d cycles, want %d: paid through the sending one", cycle, i, got, cycle+1)
			}
		}
		consumers.elems[i].onReport = func(cycle uint64) { reported = append(reported, [2]uint64{cycle, uint64(i)}) }
	}
	e.Run(1)
	reported = reported[:0] // every element is reported on the first cycle
	tickedAt := func(cycle uint64) (out []int) {
		for i := range consumers.elems {
			if slices.Contains(consumers.elems[i].ticked, cycle) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, tc := range []struct {
		at        uint64
		wire      int
		consumers []int // elements that tick in the cycle after the send
		dog, sink bool
	}{
		// A case starts a cycle after its Run does: every entry walks the
		// plain components once.
		{at: 5, wire: 0, consumers: []int{1}},
		{at: 10, wire: 1, dog: true, sink: true},
	} {
		step.at, step.armFn = tc.at, func() { tbl.Send(tc.wire) }
		e.Run(tc.at + 3 - e.Cycle())
		if got := tickedAt(tc.at); got != nil || slices.Contains(sink.tickedC, tc.at) {
			t.Errorf("cycle %d: consumers %v (and the sink: %v) ticked in the sending cycle", tc.at, got, slices.Contains(sink.tickedC, tc.at))
		}
		if got := slices.Contains(dog.tickedC, tc.at); got != tc.dog {
			t.Errorf("cycle %d: dog ticked = %v, want %v", tc.at, got, tc.dog)
		}
		if got := tickedAt(tc.at + 1); !slices.Equal(got, tc.consumers) {
			t.Errorf("cycle %d: consumers %v ticked, want %v", tc.at+1, got, tc.consumers)
		}
		if got := slices.Contains(sink.tickedC, tc.at+1); got != tc.sink {
			t.Errorf("cycle %d: sink ticked = %v, want %v", tc.at+1, got, tc.sink)
		}
	}
	// Consumer 1 was woken after the quiet report of cycle 5: its first
	// report is cycle 6's, behind its first tick.
	if want := [][2]uint64{{6, 1}}; !slices.Equal(reported, want) {
		t.Errorf("consumers reported on at (cycle, element) %v, want %v", reported, want)
	}
}

// BenchmarkGateChurn times the gate alone: a stub arena of 1 024
// elements, 64 of them armed every cycle through the arm table for the
// next, each busy one to three cycles — so some 130 are active at a time, they park
// in the cycle they go quiet, and the active list is closed up every
// cycle. Reported per element-cycle ticked; nothing is allocated.
func BenchmarkGateChurn(b *testing.B) {
	e, churn, a := gatedArena(1024)
	a.noLog = true
	self := make([]Target, len(a.elems))
	for i := range self {
		self[i] = Target{Name: "arena", Elem: i}
	}
	tbl, err := e.ArmTable(self)
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	churn.armFn = func() {
		churn.at++ // fire again next cycle
		for k := 0; k < 64; k++ {
			i := next & 1023
			next += 7 // odd: every element in turn
			a.elems[i].busy = uint64(1 + next%3)
			tbl.Send(i)
		}
	}
	e.Run(64) // the lists reach their final capacity
	before := a.ticks
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
	b.StopTimer()
	if per := float64(a.ticks-before) / float64(b.N); per < 64 || per > 3*64 {
		b.Fatalf("%.0f elements ticked per cycle, want 64 armed and up to three times as many active", per)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(a.ticks-before), "ns/elem-cycle")
}
