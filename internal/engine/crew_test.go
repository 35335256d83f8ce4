package engine

import (
	"runtime"
	"slices"
	"testing"
)

// wireArena is an arena whose elements keep their own records only — a
// crew may tick two of them at once — and can send from their Tick:
// element i is busy until busyUntil[i], then quiet, and calls send[i]
// in every cycle it ticks.
type wireArena struct {
	ticked    [][]uint64
	count     []uint64
	busyUntil []uint64
	send      []func(cycle uint64)
}

func newWireArena(n int) *wireArena {
	return &wireArena{ticked: make([][]uint64, n), count: make([]uint64, n),
		busyUntil: make([]uint64, n), send: make([]func(uint64), n)}
}

func (a *wireArena) ComponentName() string { return "arena" }
func (a *wireArena) Len() int              { return len(a.count) }
func (a *wireArena) Tick(c uint64)         { a.TickRange(0, a.Len(), c) }
func (a *wireArena) Commit(uint64)         {}
func (a *wireArena) TickRange(lo, hi int, c uint64) {
	for i := lo; i < hi; i++ {
		a.tick(i, c)
	}
}
func (a *wireArena) TickList(idx []int, c uint64) {
	for _, i := range idx {
		a.tick(i, c)
	}
}
func (a *wireArena) tick(i int, c uint64) {
	a.count[i]++
	a.ticked[i] = append(a.ticked[i], c)
	if a.send[i] != nil {
		a.send[i](c)
	}
}
func (a *wireArena) QuietList(idx []int, c uint64, quiet []int) []int {
	for r, i := range idx {
		if c+1 >= a.busyUntil[i] {
			quiet = append(quiet, r)
		}
	}
	return quiet
}
func (a *wireArena) ElemSkipIdle(i int, from, n uint64) { a.count[i] += n }

// TestCrewWakesAcrossSpans: on a crew of two, element 0 lies in worker
// 0's span and element 1 in worker 1's. A flit element 0 sends in cycle
// 40 to element 1, parked since cycle 0, wakes it in cycle 41 — the
// cycle the flit becomes visible — and in no other, as on the crew of
// one a one-processor host walks it on.
func TestCrewWakesAcrossSpans(t *testing.T) {
	e := New()
	e.SetGated(true)
	e.sched.duty.share, e.sched.duty.span = 65, 1
	a := newWireArena(2)
	e.MustRegisterArena(a)
	tbl, err := e.ArmTable([]Target{{Name: "arena", Elem: 0}}, []Target{{Name: "arena", Elem: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a.busyUntil[0] = 41
	a.send[0] = func(c uint64) {
		if c == 40 {
			(*tbl.Hook())(0)
		}
	}
	e.Run(100)
	// Cycles 0–41 are walked, on the crew where there is one; from 42 on
	// everything is parked, and the engine skips to the end.
	want := uint64(42)
	if runtime.GOMAXPROCS(0) == 1 {
		want = 0
	}
	if e.PooledCycles() != want {
		t.Errorf("%d cycles walked on a crew at GOMAXPROCS %d, want %d", e.PooledCycles(), runtime.GOMAXPROCS(0), want)
	}
	if want := []uint64{0, 41}; !slices.Equal(a.ticked[1], want) {
		t.Errorf("element 1 ticked in cycles %v, want %v", a.ticked[1], want)
	}
	if got := len(a.ticked[0]); got != 41 {
		t.Errorf("element 0 ticked in %d cycles, want 0–40", got)
	}
	for i, c := range a.count {
		if c != 100 {
			t.Errorf("element %d counts %d cycles after 100", i, c)
		}
	}
}

// TestArmerTakesSerialTickersOnly: an arm within the cycle reaches a
// SerialTicker, which the coordinator ticks after every worker's share
// — so Armer and ArmTable.Also refuse an arena element, a component that
// ticks in parallel and an unknown name, and take a SerialTicker; an
// engine with an Armer of one walks on a crew where the host has a
// second processor.
func TestArmerTakesSerialTickersOnly(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target Target
		ok     bool
	}{
		{"element", Target{Name: "arena", Elem: 1}, false},
		{"plain", Target{Name: "plain"}, false},
		{"unknown", Target{Name: "nobody"}, false},
		{"serial", Target{Name: "serial"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.SetGated(true)
			e.sched.duty.share, e.sched.duty.span = 65, 1
			a := newWireArena(2)
			a.busyUntil[0], a.busyUntil[1] = NeverWake, NeverWake
			e.MustRegisterArena(a)
			e.MustRegister(&tickSink{name: "plain"})
			e.MustRegister(serial{})
			tbl, err := e.ArmTable([]Target{{Name: "plain"}}, []Target{{Name: "arena", Elem: 0}})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := e.Armer(tc.target); ok != tc.ok {
				t.Errorf("Armer took %+v: %v, want %v", tc.target, ok, tc.ok)
			}
			if err := tbl.Also(0, tc.target.Name); (err == nil) != tc.ok {
				t.Errorf("Also(0, %q) = %v, want it to take it: %v", tc.target.Name, err, tc.ok)
			}
			e.Run(10)
			if crew := e.PooledCycles() > 0; crew != (runtime.GOMAXPROCS(0) > 1) {
				t.Errorf("walked on a crew: %v at GOMAXPROCS %d", crew, runtime.GOMAXPROCS(0))
			}
		})
	}
}

// serial is a SerialTicker that does nothing.
type serial struct{}

func (serial) ComponentName() string { return "serial" }
func (serial) Tick(uint64)           {}
func (serial) Commit(uint64)         {}
func (serial) TickSerially()         {}

// TestBudgetCountsTheHostsProcessors: with GOMAXPROCS above the host's
// processors, the helper budget, a crew's size and its spin count the
// processors the host has — a crew that outnumbers them yields at the
// gate. Nothing here starts a goroutine.
func TestBudgetCountsTheHostsProcessors(t *testing.T) {
	cpus := runtime.NumCPU()
	withProcs(t, cpus+1)
	var took []int
	for range 3 {
		took = append(took, TakeHelpers(cpus+1))
	}
	held := 0
	for _, n := range took {
		held += n
	}
	ReturnHelpers(held)
	if held != cpus-1 {
		t.Errorf("took %v helpers at GOMAXPROCS %d on %d processors, want %d in all", took, cpus+1, cpus, cpus-1)
	}
	e, _ := shareEngine("arena", 0)
	e.sched.duty.span = 1
	e.Run(0) // the gates learn the arena's size
	if n := e.crewSize(0); n != cpus {
		t.Errorf("crew size %d, want the host's %d processors", n, cpus)
	}
	if s := newPool(cpus).gate.spin; s != spinLong {
		t.Errorf("a crew of %d spins %d before it yields, want %d", cpus, s, spinLong)
	}
	if s := newPool(cpus + 1).gate.spin; s != spinYield {
		t.Errorf("a crew of %d on %d processors spins %d before it yields, want %d", cpus+1, cpus, s, spinYield)
	}
}

// flipArena is an arena whose elements are quiet whenever asked and keep
// their own counts — a crew may tick two of them at once.
type flipArena struct{ counts []uint64 }

func (a *flipArena) ComponentName() string { return "arena" }
func (a *flipArena) Len() int              { return len(a.counts) }
func (a *flipArena) Tick(c uint64)         { a.TickRange(0, a.Len(), c) }
func (a *flipArena) Commit(uint64)         {}
func (a *flipArena) TickRange(lo, hi int, c uint64) {
	for i := lo; i < hi; i++ {
		a.counts[i]++
	}
}
func (a *flipArena) TickList(idx []int, c uint64) {
	for _, i := range idx {
		a.counts[i]++
	}
}
func (a *flipArena) QuietList(idx []int, c uint64, quiet []int) []int {
	for r := range idx {
		quiet = append(quiet, r)
	}
	return quiet
}
func (a *flipArena) ElemSkipIdle(i int, from, n uint64) { a.counts[i] += n }

// sender sends on every wire of its table every fourth cycle.
type sender struct {
	send  *func(i int)
	wires int
}

func (s *sender) ComponentName() string { return "sender" }
func (s *sender) Commit(uint64)         {}
func (s *sender) Tick(c uint64) {
	if c%4 == 0 {
		for i := range s.wires {
			(*s.send)(i)
		}
	}
}

// TestCrewSizeFlipsRebuildNothing: runs that alternate a crew of two and
// a crew of one — as a run's helpers come and go with the budget — keep
// what each crew is built from. After the first run of each size a run
// allocates nothing but what the runtime takes to start its helper, two
// objects at most on average (as TestCrewRunAllocs bounds it), and a
// crew of one nothing at all (in whole objects per run, as
// testing.AllocsPerRun counts); every element counts every cycle, and
// only the crew of two's cycles are pooled.
func TestCrewSizeFlipsRebuildNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e := New()
	e.SetGated(true)
	e.sched.duty.share = 65
	a := &flipArena{counts: make([]uint64, 64)}
	src := &sender{wires: len(a.counts)}
	e.MustRegister(src)
	e.MustRegisterArena(a)
	var writers, readers []Target
	for i := range a.counts {
		writers, readers = append(writers, Target{Name: "sender"}), append(readers, Target{Name: "arena", Elem: i})
	}
	tbl, err := e.ArmTable(writers, readers)
	if err != nil {
		t.Fatal(err)
	}
	src.send = tbl.Hook()
	// batch alternates runs on the two crew sizes and returns the
	// objects a run allocated on each, on average, after the first run
	// of each size. MemStats counts every goroutine's objects, so a
	// stray one from the runtime or the test binary can land in any
	// batch; a bound fails only when a second, independent batch breaks
	// it too, as a real per-run allocation does.
	const runs = 12
	batches := 0
	batch := func() (per [3]uint64) {
		var ms runtime.MemStats
		var allocs [3]uint64 // by crew size
		for run := range runs {
			n := 2 - run%2
			CrewOf(e, n)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			e.Run(200)
			runtime.ReadMemStats(&ms)
			if run >= 2 {
				allocs[n] += ms.Mallocs - before
			}
		}
		batches++
		for n := range allocs {
			per[n] = allocs[n] / (runs/2 - 1)
		}
		return per
	}
	bound := [3]uint64{1: 0, 2: 2}
	first := batch()
	var second [3]uint64
	if first[1] > bound[1] || first[2] > bound[2] {
		second = batch()
	}
	if first[2] > bound[2] && second[2] > bound[2] {
		t.Errorf("a run on a crew of two allocated %d, then %d objects, want at most 2", first[2], second[2])
	}
	if first[1] > bound[1] && second[1] > bound[1] {
		t.Errorf("a run on a crew of one allocated %d, then %d objects, want none", first[1], second[1])
	}
	if want := uint64(batches * runs / 2 * 200); e.PooledCycles() != want {
		t.Errorf("%d cycles pooled, want the crew of two's %d", e.PooledCycles(), want)
	}
	for i, c := range a.counts {
		if want := uint64(batches * runs * 200); c != want {
			t.Fatalf("element %d counts %d cycles after %d", i, c, want)
		}
	}
}

// TestSendBetweenRunsSurvivesACrewChange: a flit put on a wire between
// runs (a register write that clears a stuck fault does) wakes its
// parked reader for the next run's second cycle, the first it can take
// the flit in, even when that run walks on a crew of another size and
// nothing else is awake: the queued wake keeps the run from skipping its
// first cycle, whose report applies it.
func TestSendBetweenRunsSurvivesACrewChange(t *testing.T) {
	e := New()
	e.SetGated(true)
	e.sched.duty.share = 65
	a := newWireArena(2)
	e.MustRegisterArena(a)
	tbl, err := e.ArmTable([]Target{{Name: "arena", Elem: 0}}, []Target{{Name: "arena", Elem: 1}})
	if err != nil {
		t.Fatal(err)
	}
	CrewOf(e, 2)
	e.Run(10)
	(*tbl.Hook())(0)
	CrewOf(e, 1)
	e.Run(5)
	if want := []uint64{0, 11}; !slices.Equal(a.ticked[1], want) {
		t.Errorf("the reader ticked in cycles %v, want %v", a.ticked[1], want)
	}
	for i, c := range a.count {
		if c != 15 {
			t.Errorf("element %d counts %d cycles after 15", i, c)
		}
	}
}
