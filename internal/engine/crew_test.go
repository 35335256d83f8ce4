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
// cycle the flit becomes visible — and in no other, as on one core,
// where a one-processor host keeps the walk.
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

// TestCrewOnlyForSerialArms: an Armer of an arena element — an arm a
// worker would make in another's span within the cycle — keeps the gated
// walk on one core, crew or no crew; an Armer of a SerialTicker does not.
func TestCrewOnlyForSerialArms(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target Target
		crew   bool
	}{
		{"element", Target{Name: "arena", Elem: 1}, false},
		{"serial", Target{Name: "serial"}, runtime.GOMAXPROCS(0) > 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.SetGated(true)
			e.sched.duty.share, e.sched.duty.span = 65, 1
			a := newWireArena(2)
			a.busyUntil[0], a.busyUntil[1] = NeverWake, NeverWake
			e.MustRegisterArena(a)
			e.MustRegister(serial{})
			if _, ok := e.Armer(tc.target); !ok {
				t.Fatal("Armer did not resolve")
			}
			e.Run(10)
			if crew := e.PooledCycles() > 0; crew != tc.crew {
				t.Errorf("walked on a crew: %v, want %v", crew, tc.crew)
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
