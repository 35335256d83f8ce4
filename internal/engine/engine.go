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
// One Engine drives that schedule through one run loop (run, below).
// Two optional states pick how a cycle is walked: the clock gates of
// quiesce.go park idle components, and the worker pool of pool.go
// recovers the paper's other performance property — every device
// evaluated concurrently within a cycle. The two meet in duty.go: while
// nearly everything is busy the gates stand down, and a gated engine
// without workers of its own walks the stretch on a pool where the
// platform is big enough to pay for one and the host has the
// processors, plainly where not. Results are bit-identical whichever
// walk executes them.
package engine

import (
	"errors"
	"fmt"
	"sort"
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
// The pooled walk relies on one further discipline, which every
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
// components — e.g. a watchdog summing platform-wide statistics. The
// pooled walk evaluates such components alone on the coordinator,
// after every worker's share of the cycle; the sequential walks run
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
	// sortedNames caches the Names() result; namesStale marks it for a
	// re-sort after a registration.
	sortedNames []string
	namesStale  bool
	// arenas lists the components registered through RegisterArena
	// (arena.go); the pooled walk shards their index ranges instead of
	// assigning them whole.
	arenas  []Arena
	tables  []*ArmTable          // the wires' (quiesce.go); flushed after each gated cycle's quiet report
	rewound []func(delta uint64) // told of every Reset (OnReset)
	cycle   uint64
	// The two optional states, decided in reshape and nowhere else:
	// sched (quiesce.go) exists iff the engine is gated and has no
	// workers of its own — its stand-down stretches may borrow a pool
	// (duty.go) — and pool (pool.go) iff it has. A gated pool keeps no
	// parking state: it skips the windows in which every component is
	// quiet.
	gated bool
	sched *sched
	pool  *pool
	// strace receives kernel scheduling events (trace.go); nil — the
	// default — disables them.
	strace SchedTrace
	// pooled counts the cycles walked on a pool (PooledCycles).
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

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() uint64 { return e.cycle }

// PooledCycles returns how many cycles the engine has walked on a pool
// of workers since it was built — its own (SetWorkers) or a stand-down
// stretch's (duty.go). Like every scheduling choice it never shows in
// results.
func (e *Engine) PooledCycles() uint64 { return e.pooled }

// Step advances the simulation by exactly one cycle.
func (e *Engine) Step() { e.run(1, false) }

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
	// Enter: the pool syncs its shards with the registry, the gates
	// their slots (schedEnter); a stand-down stretch that goes on into
	// this run gets its workers back (duty.go).
	if e.pool != nil {
		e.pool.enter(e)
	} else if e.sched != nil {
		e.schedEnter()
		if e.sched.duty.down {
			e.hire()
		}
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
	// Leave: the workers go back to sleep, a stretch's for good; the
	// gates pay what the parked are owed, so observers between runs read
	// the counters a naive schedule would have produced.
	if e.pool != nil {
		e.pool.leave()
	} else if e.sched != nil {
		e.dismiss()
		e.settle()
	}
	return executed, stopped
}

// walk executes one cycle and counts it. A gated engine whose gates
// stand down (duty.go) walks the plain schedule, on the stretch's pool
// when it has one.
func (e *Engine) walk() {
	switch s := e.sched; {
	case e.pool != nil:
		e.pool.walk(e.cycle)
		e.pooled++
	case s != nil && e.gatesUp():
		s.wakeDue(e.cycle)
		s.reg.Tick(e.cycle)
		s.report(e.cycle)
		for _, t := range e.tables {
			t.flush(s, e.cycle+1)
		}
		s.duty.count(s.arenas)
	case s != nil && s.duty.crew != nil:
		s.duty.crew.walk(e.cycle)
		e.pooled++
	default:
		c := e.cycle
		for _, comp := range e.components {
			comp.Tick(c)
		}
	}
	e.cycle++
}

// skip fast-forwards the cycle counter over a window in which nothing
// would happen — to the earliest wake, or to the end of the budget if
// that comes first — and returns the cycles skipped. Only a gated
// engine skips. The gates carry the skipped cycles as debt on their
// watermarks; the pool, which keeps none, pays every component on the
// spot.
func (e *Engine) skip(budget uint64) uint64 {
	var wake uint64
	var quiet bool
	if e.pool != nil {
		wake, quiet = e.pool.nextWake(e.cycle)
	} else {
		wake, quiet = e.sched.nextWake()
	}
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
	if e.pool != nil {
		for _, q := range e.pool.quies {
			q.SkipIdle(e.cycle, n)
		}
	}
	e.cycle = target
	return n
}

// SetGated enables or disables quiescence-aware scheduling. Disabled
// (the default for a fresh engine) every component is walked every
// cycle. Results are bit-identical either way; gating only changes how
// fast idle cycles execute. A sequential engine gates per component and
// arena element, which needs the arm-on-input hooks of quiesce.go on
// every path that hands a parked component input; an engine with
// workers needs none.
func (e *Engine) SetGated(on bool) {
	e.gated = on
	e.reshape()
}

// Gated reports whether quiescence-aware scheduling is enabled.
func (e *Engine) Gated() bool { return e.gated }

// SetWorkers makes the engine evaluate every cycle on n goroutines,
// the caller's included (pool.go), gated or not. 0, the default, leaves
// the choice to the engine: a gated one walks the busy stretches in
// which its gates stand down on a pool when the platform is big enough
// to pay for one (duty.go), and every other cycle on the caller's
// goroutine alone. Workers may exceed the component count; surplus
// shards are empty. The goroutines of n > 0 start at the next run and
// stay, asleep between runs, until Close; those of a stand-down stretch
// never outlive the run.
func (e *Engine) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("engine: %d workers", n)
	}
	e.Close()
	e.pool = nil
	if n > 0 {
		e.pool = newPool(n)
	}
	e.reshape()
	return nil
}

// reshape is the one decision point for the optional states: the gates
// exist iff the engine is gated and has no workers. Dropping them
// settles their outstanding skip accounting first.
func (e *Engine) reshape() {
	switch want := e.gated && e.pool == nil; {
	case want && e.sched == nil:
		s := &sched{duty: duty{share: standDownShare, span: poolSpan}}
		s.reg = clockGate{pop: s, ordered: true, log: e.logSched}
		s.duty.restart(e.cycle)
		e.sched = s
	case !want && e.sched != nil:
		e.schedEnter()
		e.settle()
		e.standUp()
		e.sched = nil
	}
}

// Close releases the goroutines of an engine with workers (SetWorkers
// n > 0) — asleep between runs, so they exit at once — and returns when
// they have. It does nothing on an engine without workers, whose
// stand-down pools end with their runs, or before the first run, and
// may be called again. A later run starts them afresh.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
	}
}

// OnReset registers f to be told of every Reset, once the old timeline
// is settled and before the counter moves, of the jump (new minus old
// cycle, mod 2^64), so that state stamped with cycles can move along; a
// LoadState replaces such state.
func (e *Engine) OnReset(f func(delta uint64)) { e.rewound = append(e.rewound, f) }

// Reset rewinds the cycle counter and re-arms the kernel's cached
// run-control state: outstanding quiescence skip accounting is
// settled, every parked component and arena element (including the
// cached Stopper and Aborter components among them) returns to the
// active walk, and the wake heaps are cleared, so the next run polls
// and evaluates everything afresh from cycle zero.
//
// Reset does NOT reset component state: the next run continues from
// the components' current state at cycle zero. A full rewind —
// component state included — is a restore of a cycle-zero snapshot
// through the Stateful contract (state.go): the platform layer captures
// one at the end of Build and exposes it as Platform.FullReset, which
// composes this Reset with a LoadState walk over every component.
func (e *Engine) Reset() { e.rebase(0, e.rewound) }
