// Package engine implements the cycle-driven simulation kernel that
// stands in for the FPGA fabric of the paper's emulation platform.
//
// The FPGA evaluates every emulated device in parallel once per clock
// cycle, its registers being the cycle boundary. The kernel reproduces
// those semantics in one pass per cycle: no component reads what
// another wrote in the same cycle, because the boundary lives in the
// state itself — a wire's cycle-parity slots (what is sent in one cycle
// is taken in the next) and a switch's start-of-cycle occupancy mask.
// The result is independent of component evaluation order, exactly like
// synchronous hardware, and is what makes the emulator fast: the
// schedule is a static slice walked once per cycle, with no dynamic
// event management (the property the paper credits for its four orders
// of magnitude over event-driven simulation).
//
// One Engine drives that schedule through one run loop (run, below) and
// two walks. Ungated, it ticks every component in registration order:
// the reference. Gated — the one optional state — the clock gates of
// quiesce.go park idle components, and every run walks them on a crew
// (pool.go, duty.go): every worker its share of the gates, so a big
// sparse platform ticks only its active devices, and where enough is
// busy the gates stand down for the plain walk, on the same crew. Where
// the platform is big enough to pay for it and the host has the
// processors, the crew has helpers, recovering the paper's other
// performance property — every device evaluated concurrently within a
// cycle; elsewhere it is a crew of one, the caller's goroutine alone.
// Results are bit-identical whichever walk executes them.
package engine

import (
	"errors"
	"fmt"
)

// Component is a synchronous device evaluated once per cycle.
//
// During Tick a component reads its inputs as of the start of the cycle
// — a wire shows in cycle c what was sent to it in c-1 — and writes its
// outputs for the next; state only the component itself reads (a
// switch's lanes, an ejector's buffer) may change at once, in an order
// the component keeps. Nothing is left for after the cycle's other
// Ticks: the wires' parity slots are the cycle boundary, and the engine
// never calls Commit.
//
// A crew's walk relies on one further discipline, which every
// component of the platform already obeys by construction: during a
// cycle, a component touches only its own state plus the disjoint
// per-endpoint halves of the wires it is connected to (a link's
// producer writes next cycle's slot, its consumer takes this cycle's).
// A component whose Tick instead observes other components' state must
// additionally implement SerialTicker.
type Component interface {
	// ComponentName returns a stable, human-readable instance name.
	ComponentName() string
	// Tick computes the component's next state for the given cycle.
	Tick(cycle uint64)
	// Commit is no phase of the kernel, and every component's is empty.
	// It stays because code that walks the components itself, beside
	// the kernel, calls it (bench/kernel.go's per-class walk).
	Commit(cycle uint64)
}

// SerialTicker marks a component whose Tick reads state owned by other
// components — e.g. a watchdog summing platform-wide statistics. A
// crew evaluates such components alone on the coordinator, after every
// worker's share of the cycle; the ungated walk runs
// them in registration order like any other component. The walks
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

// Engine drives a set of components cycle by cycle.
type Engine struct {
	components []Component
	names      map[string]int
	// stoppers and aborters cache the interface assertions at Register
	// time so the run loop never rebuilds them.
	stoppers []Stopper
	aborters []Aborter
	// arenas lists the components registered through RegisterArena
	// (arena.go); a crew shards their index ranges instead of assigning
	// them whole.
	arenas []Arena
	tables []*ArmTable // the wires' (quiesce.go); delivered in each gated cycle's report
	armers []*armer    // every Armer's closure (quiesce.go)
	// cycle is the completed-cycle counter. It moves only by running or
	// by LoadState (state.go).
	cycle uint64
	// The optional state, decided in reshape and nowhere else: sched
	// (quiesce.go) exists iff the engine is gated; its runs walk on a
	// crew (duty.go).
	gated bool
	sched *sched
	// strace receives kernel scheduling events (trace.go); nil — the
	// default — disables them.
	strace SchedTrace
	// pooled counts the cycles walked on a crew with helpers
	// (PooledCycles).
	pooled uint64
}

// New returns an empty engine at cycle zero.
func New() *Engine {
	return &Engine{names: make(map[string]int)}
}

// ErrDuplicateName is returned when two components register under the
// same instance name.
var ErrDuplicateName = errors.New("engine: duplicate component name")

// Register adds a component to the evaluation schedule. Registration
// order is the evaluation order; because no component reads what
// another wrote in the same cycle the simulation result does not depend
// on it, but keeping it stable keeps profiles and debug output stable.
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
	return nil
}

// MustRegister is Register for construction paths where a duplicate name
// is a programming error.
func (e *Engine) MustRegister(c Component) {
	if err := e.Register(c); err != nil {
		panic(err)
	}
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

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() uint64 { return e.cycle }

// PooledCycles returns how many cycles the engine has walked on a
// crew of two workers or more since it was built (duty.go). Like every
// scheduling choice it never shows in results.
func (e *Engine) PooledCycles() uint64 { return e.pooled }

// Run advances the simulation by n cycles and returns the number of
// cycles actually executed (always n; cycles skipped by fast-forward
// count as executed).
func (e *Engine) Run(n uint64) uint64 {
	executed, _ := e.run(n, false)
	return executed
}

// RunUntil steps the engine until every registered Stopper reports
// Done, until any Aborter fires, or until maxCycles have elapsed since
// the call. It returns the number of cycles executed and whether the
// stop condition (rather than the cycle cap or an abort) ended the run.
// An engine with no Stoppers runs to the cap.
func (e *Engine) RunUntil(maxCycles uint64) (executed uint64, stopped bool) {
	return e.run(maxCycles, true)
}

// pollStop evaluates the stop condition: any fired Aborter ends the run
// unstopped; otherwise the run is stopped when there is at least one
// Stopper and all are done.
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

// run is the one run loop behind Step, Run and RunUntil, whichever walk
// executes the cycles. Its order is the contract the determinism
// matrices police: the stop predicate is polled before every executed
// cycle — the first one and the one a fast-forward lands on included —
// and before any skip; a skip never outruns the budget. The quiet
// contract (quiesce.go) guarantees that no Stopper or Aborter answer
// changes inside a skipped window, so every walk stops on the same
// cycle. A coarser every-K-cycles poll was rejected: per-cycle counters
// (switch cycles, link utilization) advance even in an idle network, so
// overshooting the stop by one cycle would break bit-identity.
func (e *Engine) run(max uint64, poll bool) (executed uint64, stopped bool) {
	poll = poll && len(e.stoppers)+len(e.aborters) > 0
	// Enter: the gates sync with the registry, and a gated run that
	// walks hires its crew (schedEnter).
	if e.sched != nil {
		e.schedEnter(max > 0)
	}
	for executed < max {
		if poll {
			if stop, byStopper := e.pollStop(); stop {
				stopped = byStopper
				break
			}
		}
		if e.gated {
			if n := e.skip(max - executed); n > 0 {
				executed += n
				continue
			}
		}
		e.walk()
		executed++
	}
	// Leave: the crew's goroutines exit; the gates pay what the parked
	// are owed, so observers between runs read the counters a naive
	// schedule would have produced.
	if e.sched != nil {
		if max > 0 {
			e.dismiss()
		}
		e.settle()
	}
	return executed, stopped
}

// walk executes one cycle and counts it. An ungated engine walks its
// components in registration order — the reference every other walk is
// held to. A gated one walks its gates on the run's crew (crewWalk) or,
// while they stand down (duty.go), the plain schedule on the same crew.
func (e *Engine) walk() {
	c := e.cycle
	if s := e.sched; s == nil {
		for _, comp := range e.components {
			comp.Tick(c)
		}
	} else {
		if e.gatesUp() {
			e.crewWalk(s)
		} else {
			s.pool.walk(c)
		}
		if len(s.pool.shards) > 1 {
			e.pooled++
		}
	}
	e.cycle++
}

// skip fast-forwards the cycle counter over a window in which nothing
// would happen — to the earliest wake, or to the end of the budget if
// that comes first — and returns the cycles skipped. Only a gated
// engine skips. The gates carry the skipped cycles as debt on their
// watermarks.
func (e *Engine) skip(budget uint64) uint64 {
	wake, quiet := e.sched.nextWake()
	if !quiet || wake <= e.cycle {
		return 0
	}
	target := e.cycle + budget
	if target < e.cycle || wake < target { // overflow, or a timer first
		target = wake
	}
	if e.strace != nil {
		e.strace.SchedFastForward(e.cycle, target)
	}
	n := target - e.cycle
	e.cycle = target
	return n
}

// SetGated enables or disables quiescence-aware scheduling. Disabled
// (the default for a fresh engine) every component is walked every
// cycle. Results are bit-identical either way; gating only changes how
// fast idle cycles execute. A gated engine parks per component and
// arena element, which needs the arm-on-input hooks of quiesce.go on
// every path that hands a parked component input.
func (e *Engine) SetGated(on bool) {
	e.gated = on
	e.reshape()
}

// reshape is the one decision point for the optional state: the gates
// exist iff the engine is gated. Dropping them settles their
// outstanding skip accounting first and switches the arm hooks off.
func (e *Engine) reshape() {
	switch {
	case e.gated && e.sched == nil:
		s := &sched{duty: duty{share: standDownShare, span: poolSpan}, pools: map[int]*pool{}}
		s.coord = crewGates{e: e, s: s}
		s.coord.reg = clockGate{pop: &s.coord, log: e.logSched}
		s.duty.restart(e.cycle)
		e.sched = s
	case !e.gated && e.sched != nil:
		e.settle()
		e.armHooks(false)
		e.sched = nil
	}
}
