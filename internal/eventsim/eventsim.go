// Package eventsim is a signal-level, event-driven simulation kernel in
// the style of an HDL simulator (the paper's "Verilog (ModelSim)"
// baseline, reported at 3.2 Kcycles/s against the emulator's 50 M).
//
// Unlike the emulator's static one-pass loop, this kernel pays the
// classic event-driven costs on every clock edge: per-signal update
// events through a time-ordered calendar, delta cycles until
// quiescence, and dynamic activation of processes from sensitivity
// lists. The internal/rtl package builds the NoC devices on top of it;
// benchmarks compare its cycles/second against the emulation engine to
// regenerate the paper's Table 2 shape.
package eventsim

import (
	"container/heap"
	"fmt"
)

// Time is simulation time in clock half-periods.
type Time uint64

// Process is a simulation process activated by signal events.
type Process struct {
	name string
	fn   func()
	// queuedDelta marks the process as already activated in the current
	// delta to deduplicate activations.
	queuedDelta uint64
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// updater is a pending signal update.
type updater interface {
	// apply commits the staged value; it returns the processes to
	// activate (nil when the value did not change).
	apply() []*Process
}

// futureEvent is a calendar entry.
type futureEvent struct {
	at  Time
	seq uint64 // insertion order for determinism
	up  updater
}

type calendar []*futureEvent

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int)       { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x interface{}) { *c = append(*c, x.(*futureEvent)) }
func (c *calendar) Pop() interface{} {
	old := *c
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*c = old[:n-1]
	return e
}

// Stats counts the kernel's dynamic work — the overhead the emulator
// avoids.
type Stats struct {
	// Events is the number of signal updates applied.
	Events uint64
	// Activations is the number of process executions.
	Activations uint64
	// DeltaCycles is the number of delta iterations run.
	DeltaCycles uint64
}

// Kernel is the event-driven simulator.
type Kernel struct {
	now      Time
	seq      uint64
	deltaSeq uint64
	future   calendar
	delta    []updater
	runq     []*Process
	inDelta  bool

	stats Stats
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	k := &Kernel{}
	heap.Init(&k.future)
	return k
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Stats returns the dynamic-work counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NewProcess registers a process; sensitivity is established by the
// signals via Sensitize.
func (k *Kernel) NewProcess(name string, fn func()) *Process {
	if fn == nil {
		panic("eventsim: nil process body")
	}
	return &Process{name: name, fn: fn}
}

// schedule places an update on the calendar at now+delay (delay 0 means
// the next delta cycle).
func (k *Kernel) schedule(delay Time, up updater) {
	if delay == 0 {
		k.delta = append(k.delta, up)
		return
	}
	k.seq++
	heap.Push(&k.future, &futureEvent{at: k.now + delay, seq: k.seq, up: up})
}

// activate queues a process for the next delta run, deduplicated.
func (k *Kernel) activate(ps []*Process) {
	for _, p := range ps {
		if p.queuedDelta == k.deltaSeq {
			continue
		}
		p.queuedDelta = k.deltaSeq
		k.runq = append(k.runq, p)
	}
}

// runDeltas applies pending updates and runs activated processes until
// the current time step is quiescent.
func (k *Kernel) runDeltas() {
	for len(k.delta) > 0 {
		k.stats.DeltaCycles++
		k.deltaSeq++
		updates := k.delta
		k.delta = nil
		k.runq = k.runq[:0]
		for _, up := range updates {
			k.stats.Events++
			k.activate(up.apply())
		}
		procs := append([]*Process(nil), k.runq...)
		for _, p := range procs {
			k.stats.Activations++
			p.fn()
		}
	}
}

// Step advances to the next scheduled time and runs it to quiescence.
// It returns false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.future) == 0 {
		return false
	}
	next := k.future[0].at
	k.now = next
	for len(k.future) > 0 && k.future[0].at == next {
		e := heap.Pop(&k.future).(*futureEvent)
		k.delta = append(k.delta, e.up)
	}
	k.runDeltas()
	return true
}

// RunUntil advances simulation until (and including) time t or event
// exhaustion; it returns the time reached.
func (k *Kernel) RunUntil(t Time) Time {
	for len(k.future) > 0 && k.future[0].at <= t {
		k.Step()
	}
	return k.now
}

// Signal is a typed wire with HDL semantics: reads see the committed
// value; writes schedule an update event; a changed value activates
// the sensitized processes in the next delta cycle.
type Signal[T comparable] struct {
	k    *Kernel
	name string
	cur  T
	sens []*Process
}

// NewSignal creates a signal with an initial value.
func NewSignal[T comparable](k *Kernel, name string, init T) *Signal[T] {
	return &Signal[T]{k: k, name: name, cur: init}
}

// Name returns the signal name.
func (s *Signal[T]) Name() string { return s.name }

// Read returns the committed value.
func (s *Signal[T]) Read() T { return s.cur }

// Sensitize adds processes to the signal's sensitivity list.
func (s *Signal[T]) Sensitize(ps ...*Process) {
	s.sens = append(s.sens, ps...)
}

type sigUpdate[T comparable] struct {
	s *Signal[T]
	v T
}

func (u sigUpdate[T]) apply() []*Process {
	if u.s.cur == u.v {
		return nil // event suppressed: no value change
	}
	u.s.cur = u.v
	return u.s.sens
}

// Write schedules the value for the next delta cycle (non-blocking
// assignment).
func (s *Signal[T]) Write(v T) { s.k.schedule(0, sigUpdate[T]{s: s, v: v}) }

// WriteAfter schedules the value delay time units ahead.
func (s *Signal[T]) WriteAfter(v T, delay Time) {
	if delay == 0 {
		s.Write(v)
		return
	}
	s.k.schedule(delay, sigUpdate[T]{s: s, v: v})
}

// Clock builds a free-running clock signal with the given half-period
// and schedules its first edge; processes sensitized to it run on every
// edge (check Read() for rising edges).
type Clock struct {
	Sig *Signal[bool]
	k   *Kernel
	hp  Time
}

type clockToggle struct{ c *Clock }

func (t clockToggle) apply() []*Process {
	c := t.c
	c.Sig.cur = !c.Sig.cur
	// Schedule the following edge.
	c.k.schedule(c.hp, clockToggle{c: c})
	return c.Sig.sens
}

// NewClock creates a clock; the first rising edge happens at
// halfPeriod.
func NewClock(k *Kernel, name string, halfPeriod Time) *Clock {
	if halfPeriod == 0 {
		panic(fmt.Sprintf("eventsim: clock %s with zero half-period", name))
	}
	c := &Clock{Sig: NewSignal(k, name, false), k: k, hp: halfPeriod}
	k.schedule(halfPeriod, clockToggle{c: c})
	return c
}

// Rising reports whether the current value is high (call from a process
// sensitized to the clock to act only on rising edges).
func (c *Clock) Rising() bool { return c.Sig.Read() }
