// Package engine implements the cycle-driven simulation kernel that
// stands in for the FPGA fabric of the paper's emulation platform.
//
// The FPGA evaluates every emulated device in parallel once per clock
// cycle. The kernel reproduces those semantics with a two-phase
// protocol: in the Tick phase every component reads only *committed*
// state (link outputs, buffer heads) and stages its writes; in the
// Commit phase all staged writes become visible at once. The result is
// independent of component evaluation order, exactly like synchronous
// hardware, and is what makes the emulator fast: the schedule is a
// static slice walked twice per cycle, with no dynamic event management
// (the property the paper credits for its four orders of magnitude over
// event-driven simulation).
//
// Two kernels share that schedule. Engine walks it sequentially on the
// caller's goroutine. ParallelEngine shards it over a persistent worker
// pool and recovers the paper's other performance property — every
// device evaluated concurrently within a phase — while producing
// bit-identical results (see parallel.go).
package engine

import (
	"errors"
	"fmt"
	"sort"
)

// Component is a synchronous device evaluated once per cycle.
//
// During Tick a component may read committed inputs and stage outputs;
// during Commit it must flip its staged state to committed. Components
// must not observe other components' staged state.
//
// The parallel kernel relies on one further discipline, which every
// component of the platform already obeys by construction: during a
// phase, a component touches only its own state plus the disjoint
// per-endpoint halves of the wires it is connected to (a link's
// producer stages, its consumer takes). A component whose Tick instead
// observes other components' state must additionally implement
// SerialTicker.
type Component interface {
	// ComponentName returns a stable, human-readable instance name.
	ComponentName() string
	// Tick computes the component's next state for the given cycle.
	Tick(cycle uint64)
	// Commit makes the state staged during Tick visible.
	Commit(cycle uint64)
}

// SerialTicker marks a component whose Tick reads state owned by other
// components — e.g. a watchdog summing platform-wide statistics. The
// parallel kernel evaluates such components alone on the coordinator,
// after the sharded part of the Tick phase; the sequential kernel runs
// them in registration order like any other component. The two kernels
// produce identical results provided a SerialTicker is registered after
// every component it observes (the platform registers watchdogs last)
// and its Tick does not write state that other components read in the
// same cycle.
type SerialTicker interface {
	Component
	// TickSerially is a marker; implementations are empty.
	TickSerially()
}

// Stopper is implemented by components that can request the end of the
// emulation (e.g. a receptor that has seen its quota of packets).
type Stopper interface {
	// Done reports whether this component considers the run complete.
	Done() bool
}

// Aborter is implemented by components that can cancel a run early —
// e.g. a watchdog that detected a deadlocked network. RunUntil stops as
// soon as any Aborter fires, regardless of the Stoppers.
type Aborter interface {
	// Aborted reports that the run must stop now.
	Aborted() bool
}

// Kernel is the run-control surface shared by the sequential Engine and
// the ParallelEngine, letting callers hold either interchangeably.
type Kernel interface {
	Step()
	Run(n uint64) uint64
	RunUntil(maxCycles uint64) (executed uint64, stopped bool)
	Cycle() uint64
	Reset()
}

// Engine drives a set of components cycle by cycle.
type Engine struct {
	components []Component
	names      map[string]int
	// stoppers and aborters cache the interface assertions at Register
	// time so RunUntil (and the parallel kernel, which polls between
	// cycles) never rebuilds them.
	stoppers []Stopper
	aborters []Aborter
	// sortedNames caches the Names() result; namesStale marks it for a
	// re-sort after a registration.
	sortedNames []string
	namesStale  bool
	// arenas lists the components registered through RegisterArena
	// (arena.go); the parallel kernel shards their index ranges instead
	// of assigning them whole.
	arenas []Arena
	cycle  uint64
	// sched holds the quiescence-aware scheduling state (quiesce.go);
	// nil when gating is off, which is the default.
	sched *sched
	// strace receives kernel scheduling events (trace.go); nil — the
	// default — disables them.
	strace SchedTrace
}

// New returns an empty engine at cycle zero.
func New() *Engine {
	return &Engine{names: make(map[string]int)}
}

// ErrDuplicateName is returned when two components register under the
// same instance name.
var ErrDuplicateName = errors.New("engine: duplicate component name")

// Register adds a component to the evaluation schedule. Registration
// order is the evaluation order; because of the two-phase protocol the
// simulation result does not depend on it, but keeping it stable keeps
// profiles and debug output stable.
func (e *Engine) Register(c Component) error {
	if c == nil {
		return errors.New("engine: nil component")
	}
	name := c.ComponentName()
	if name == "" {
		return errors.New("engine: empty component name")
	}
	if _, dup := e.names[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	e.names[name] = len(e.components)
	e.components = append(e.components, c)
	if s, ok := c.(Stopper); ok {
		e.stoppers = append(e.stoppers, s)
	}
	if a, ok := c.(Aborter); ok {
		e.aborters = append(e.aborters, a)
	}
	e.sortedNames = append(e.sortedNames, name)
	e.namesStale = true
	return nil
}

// MustRegister is Register for construction paths where a duplicate name
// is a programming error.
func (e *Engine) MustRegister(c Component) {
	if err := e.Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the registered component with the given name.
func (e *Engine) Lookup(name string) (Component, bool) {
	i, ok := e.names[name]
	if !ok {
		return nil, false
	}
	return e.components[i], true
}

// Names returns the registered component names in sorted order. The
// sort is cached across calls and refreshed only after a registration;
// the returned slice is a copy the caller may keep. No kernel path
// calls Names per cycle — it is a construction/report-time accessor.
func (e *Engine) Names() []string {
	if e.namesStale {
		sort.Strings(e.sortedNames)
		e.namesStale = false
	}
	return append([]string(nil), e.sortedNames...)
}

// NumComponents returns the number of registered components.
func (e *Engine) NumComponents() int { return len(e.components) }

// Components returns the registered components in registration order.
// Alternative schedulers (internal/tlm) drive the same component set
// through their own kernels.
func (e *Engine) Components() []Component {
	return append([]Component(nil), e.components...)
}

// Stoppers returns the registered components that implement Stopper, in
// registration order (the cached list, copied).
func (e *Engine) Stoppers() []Stopper {
	return append([]Stopper(nil), e.stoppers...)
}

// Aborters returns the registered components that implement Aborter, in
// registration order (the cached list, copied).
func (e *Engine) Aborters() []Aborter {
	return append([]Aborter(nil), e.aborters...)
}

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() uint64 { return e.cycle }

// Step advances the simulation by exactly one cycle.
func (e *Engine) Step() {
	if e.sched != nil {
		e.schedEnter()
		e.stepGated()
		e.settle()
		return
	}
	c := e.cycle
	for _, comp := range e.components {
		comp.Tick(c)
	}
	for _, comp := range e.components {
		comp.Commit(c)
	}
	e.cycle++
}

// Run advances the simulation by n cycles and returns the number of
// cycles actually executed (always n; with gating enabled, cycles
// skipped by fast-forward count as executed).
func (e *Engine) Run(n uint64) uint64 {
	if e.sched != nil {
		executed, _ := e.runGated(n, false)
		return executed
	}
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
	return n
}

// pollStop evaluates the stop condition exactly as RunUntil does before
// each cycle: any fired Aborter ends the run unstopped; otherwise the
// run is stopped when there is at least one Stopper and all are done.
// Both kernels share this predicate so their stop cycles are identical.
func (e *Engine) pollStop() (stop, byStopper bool) {
	for _, a := range e.aborters {
		if a.Aborted() {
			return true, false
		}
	}
	if len(e.stoppers) == 0 {
		return false, false
	}
	for _, s := range e.stoppers {
		if !s.Done() {
			return false, false
		}
	}
	return true, true
}

// RunUntil steps the engine until every registered Stopper reports
// Done, until any Aborter fires, or until maxCycles have elapsed since
// the call. It returns the number of cycles executed and whether the
// stop condition (rather than the cycle cap or an abort) ended the run.
// An engine with no Stoppers runs to the cap.
func (e *Engine) RunUntil(maxCycles uint64) (executed uint64, stopped bool) {
	if len(e.stoppers) == 0 && len(e.aborters) == 0 {
		return e.Run(maxCycles), false
	}
	if e.sched != nil {
		return e.runGated(maxCycles, true)
	}
	for executed < maxCycles {
		if stop, byStopper := e.pollStop(); stop {
			return executed, byStopper
		}
		e.Step()
		executed++
	}
	return executed, false
}

// Reset rewinds the cycle counter and re-arms the kernel's cached
// run-control state: outstanding quiescence skip accounting is
// settled, every parked component and arena element (including the
// cached Stopper and Aborter components among them) returns to the
// active walk, and the wake heaps are cleared, so the next run polls
// and evaluates everything afresh from cycle zero.
//
// Reset does NOT reset component state. Callers that reuse an engine
// must re-initialize their components through the control plane (which
// is the point of the paper's software-driven re-initialization);
// otherwise the next run continues from the components' current state
// at cycle zero. A full rewind — component state included — is a
// restore of a cycle-zero snapshot through the Stateful contract
// (state.go): the platform layer captures one at the end of Build and
// exposes it as Platform.FullReset, which composes this Reset with a
// LoadState walk over every component.
func (e *Engine) Reset() { e.rebase(0) }
