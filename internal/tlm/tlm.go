// Package tlm is a SystemC-style simulation backend — the stand-in for
// the paper's "SystemC (MPARM)" baseline in Table 2 (20 Kcycles/s
// against the emulator's 50 M).
//
// It drives the *same* component set as the emulation engine, so the
// results are bit-identical; what changes is the scheduler. Where the
// engine walks a static slice once per cycle, this kernel models
// SystemC's dynamic scheduling: every component — and every element of
// a dense arena, since a SystemC kernel sees each module on its own —
// is a process that "waits on the clock": it is re-inserted into a
// time-ordered event calendar (a heap) on every cycle, for both the
// evaluate and the update phase. The components need no update phase —
// the wires' parity slots are their registers — but a SystemC kernel
// runs one, so each evaluate process (Tick) is paired with an update
// process that the calendar schedules and dispatches like any other.
// A wire gets no process: it is modelled as a signal its writer
// updates — the parity slot the sender writes is what the reader sees
// next cycle — rather than as a primitive channel with an update
// process of its own. The per-cycle heap traffic is the structural
// overhead a cycle-accurate SystemC simulation pays, and benchmarks
// over this package regenerate the middle row of the paper's Table 2.
package tlm

import (
	"container/heap"
	"fmt"

	"nocemu/internal/engine"
)

// phase orders evaluate before update within one cycle.
const (
	phaseEvaluate = 0
	phaseUpdate   = 1
)

// process is one component's, or one arena element's, evaluate (Tick)
// or update process.
type process struct {
	run   func(cycle uint64)
	phase int
	seq   int
	wake  uint64
}

type calendar []*process

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].wake != c[j].wake {
		return c[i].wake < c[j].wake
	}
	if c[i].phase != c[j].phase {
		return c[i].phase < c[j].phase
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int)       { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x interface{}) { *c = append(*c, x.(*process)) }
func (c *calendar) Pop() interface{} {
	old := *c
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*c = old[:n-1]
	return p
}

// Stats counts the kernel's dynamic scheduling work.
type Stats struct {
	// HeapOps counts calendar pushes plus pops.
	HeapOps uint64
	// Dispatches counts process executions.
	Dispatches uint64
}

// Simulator schedules an engine's components through a dynamic event
// calendar.
type Simulator struct {
	cal      calendar
	stoppers []engine.Stopper
	cycle    uint64
	stats    Stats
}

// New builds a simulator over the components registered in eng. The
// engine itself is not used afterwards; this kernel owns the schedule.
func New(eng *engine.Engine) (*Simulator, error) {
	if eng == nil {
		return nil, fmt.Errorf("tlm: nil engine")
	}
	comps := eng.Components()
	if len(comps) == 0 {
		return nil, fmt.Errorf("tlm: engine has no components")
	}
	s := &Simulator{stoppers: eng.Stoppers()}
	update := func(uint64) {}
	add := func(tick func(uint64)) {
		seq := len(s.cal) / 2
		s.cal = append(s.cal,
			&process{run: tick, phase: phaseEvaluate, seq: seq},
			&process{run: update, phase: phaseUpdate, seq: seq})
	}
	for _, c := range comps {
		a, ok := c.(engine.Arena)
		if !ok {
			add(c.Tick)
			continue
		}
		for i := 0; i < a.Len(); i++ {
			add(func(cycle uint64) { a.TickRange(i, i+1, cycle) })
		}
	}
	heap.Init(&s.cal)
	s.stats.HeapOps += uint64(len(s.cal))
	return s, nil
}

// Cycle returns the number of completed cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Stats returns the scheduling-work counters.
func (s *Simulator) Stats() Stats { return s.stats }

// step executes one full cycle through the calendar.
func (s *Simulator) step() {
	target := s.cycle
	for len(s.cal) > 0 && s.cal[0].wake == target {
		p := heap.Pop(&s.cal).(*process)
		s.stats.HeapOps++
		s.stats.Dispatches++
		p.run(target)
		// SystemC-style wait(clk): the process re-enters the calendar
		// for the next cycle.
		p.wake = target + 1
		heap.Push(&s.cal, p)
		s.stats.HeapOps++
	}
	s.cycle++
}

// Run advances n cycles.
func (s *Simulator) Run(n uint64) uint64 {
	for i := uint64(0); i < n; i++ {
		s.step()
	}
	return n
}

// RunUntil advances until every stopper is done or maxCycles elapse,
// mirroring engine.RunUntil.
func (s *Simulator) RunUntil(maxCycles uint64) (uint64, bool) {
	if len(s.stoppers) == 0 {
		return s.Run(maxCycles), false
	}
	var executed uint64
	for executed < maxCycles {
		allDone := true
		for _, st := range s.stoppers {
			if !st.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			return executed, true
		}
		s.step()
		executed++
	}
	return executed, false
}
