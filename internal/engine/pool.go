// A crew: a cycle evaluated by a pool of workers.
//
// The paper's FPGA evaluates every emulated device concurrently once
// per clock. A crew recovers that property in software: the registered
// components are partitioned into per-worker shards — runs of same-type
// registrations and arenas alike by contiguous index range, so that an
// endpoint's devices share a worker with their switch — and each cycle
// is one pass of every worker over its shard, ended by one barrier. A
// gated engine hires one for each run — of one worker, the caller's
// goroutine, unless the platform is big enough and the host has the
// processors — and walks its gated cycles and the stretches its gates
// stand down for on it (duty.go). No component reads in a cycle what
// another wrote in it — the cycle boundary lives in the wires' parity
// slots and the switches' start-of-cycle occupancy — so the schedule is
// order-independent and any sharding produces results bit-identical to
// the ungated walk.
//
// Synchronization is built for cycle-rate use: a crew's goroutines are
// spawned when the run hires it and exit when the run ends. Within a
// run they free-run, meeting at one coordinator-released spin gate per
// phase of a cycle (no per-cycle goroutine spawning, no per-cycle
// channel traffic). The caller's goroutine is worker 0 and the
// coordinator: it evaluates its own shard and owns the gate's release.
// Between the last arrival and the next release — while the workers
// spin at the gate, on a fully executed phase — it ticks the
// SerialTicker components alone, and the run loop (Engine.run) polls
// the stop predicate and looks for a window to skip. The stop decision
// is therefore exact. A crew of one has no helper: it starts no
// goroutine, and its phases meet at no gate.
//
// A crew walks a gated cycle in two phases over the worker's share of
// the gates (quiesce.go, crewGates): its active lists, then — once
// every worker has ticked — its quiet report and the wakes addressed to
// it. A stand-down stretch has nothing parked to begin with, and is one
// plain phase per cycle.
//
// Flit ownership under sharding: a flit handed from one component to
// another (via a link) may cross worker shards, but the wire already
// serializes that handoff — the sender writes the slot of the next
// cycle's parity, the receiver reads it in the next cycle, the gate
// between them; within one cycle the two touch different slots and
// flag banks.
// The one cross-shard mutation outside that pattern is flit.Pool
// release: an ejector on worker A may release a flit whose home shard
// is drained by an injector on worker B. The pool carries that handoff
// on a per-shard MPSC atomic stack (CAS push by any worker, take-all
// swap by the owner), so no gate ordering is required, and reuse timing
// cannot perturb simulation state: Acquire fully resets the flit, no
// component observes flit pointer identity, and no flit is reused in
// the cycle it was released in, so the pool's ledger is the plain
// walk's.
package engine

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
)

// Gate release commands, carried from the coordinator to the workers.
const (
	cmdStop   uint32 = iota
	cmdTick          // walk the worker's shard plainly
	cmdGated         // walk the worker's share of the gates
	cmdReport        // report the worker's quiet and apply its wakes
)

// The busy-wait at a gate before the spinner yields the processor is
// bounded, so the engine stays live (if slow) even with more workers
// than processors: spinYield spins, or spinLong where every worker has
// a processor of its own (procs, duty.go) — a crew the budget paid for
// always does — and a yield would only delay it (a gated cycle on a
// crew meets at the gate twice; EXPERIMENTS.md, "The gate shards").
const (
	spinYield = 128
	spinLong  = 1024
)

// gate is a coordinator-released barrier. The coordinator publishes a
// command and moves the epoch; each worker spins on the epoch, does
// what the command says and announces its arrival; the coordinator
// waits for all arrivals before its serialized work and the next
// release. The fields are padded apart so worker arrival traffic does
// not bounce the cache line the release is published on; spin, the
// spins before a yield, is set before the workers start.
type gate struct {
	arrived atomic.Int32
	_       [60]byte
	epoch   atomic.Uint32
	cmd     atomic.Uint32
	spin    int
	_       [48]byte
}

// wait spins until the epoch moves past last, returning the new epoch
// and the release command.
func (g *gate) wait(last uint32) (uint32, uint32) {
	for spins := 0; ; spins++ {
		if e := g.epoch.Load(); e != last {
			return e, g.cmd.Load()
		}
		if spins >= g.spin {
			runtime.Gosched()
			spins = 0
		}
	}
}

// waitOthers spins until n workers have arrived, then re-arms the
// arrival counter for the next release.
func (g *gate) waitOthers(n int32) {
	for spins := 0; g.arrived.Load() != n; spins++ {
		if spins >= g.spin {
			runtime.Gosched()
			spins = 0
		}
	}
	g.arrived.Store(0)
}

// release publishes the command and opens the gate.
func (g *gate) release(cmd uint32) {
	g.cmd.Store(cmd)
	g.epoch.Add(1)
}

// pool is the state of a crew: the shards, the goroutines evaluating
// them and the gate they meet at. A gated engine keeps one for its
// crews (sched.pool) and hires it run by run (duty.go).
type pool struct {
	// shards are static per-worker component slices, rebuilt only when
	// the registration count changes (deal).
	shards [][]Component
	// spans partitions every registered arena's index range into one
	// contiguous slice per worker (arena.go): an arena is too big to be
	// one shard entry, so workers split its population by index while
	// the arena still registers as a single component.
	spans   [][]arenaSpan
	serial  []Component // SerialTicker components, coordinator-only
	sharded int         // registration count the shards were built from

	// A crew's share of the gates (quiesce.go), built with the shards:
	// owner is the worker of every registry slot, coordinator (-1) for
	// a SerialTicker and arenaSlot (-2) for an arena's; gates is each
	// worker's active lists. deals counts the deals, for the arm tables
	// routed onto one (ArmTable.route).
	owner []int32
	gates []crewGates
	deals int

	// helpers are the goroutine bodies, spawned starting at epoch
	// spawned.
	helpers []func()
	spawned uint32
	exited  sync.WaitGroup
	gate    gate
	// next carries the cycle to evaluate to the workers; it is written
	// before the release that starts the phase and read after it, which
	// orders it.
	next uint64
}

// newPool returns a pool of n workers, the caller's goroutine among
// them; its goroutines start at the first run.
func newPool(n int) *pool {
	p := &pool{shards: make([][]Component, n), spans: make([][]arenaSpan, n), sharded: -1}
	p.gate.spin = spinYield
	if n <= procs() {
		p.gate.spin = spinLong
	}
	return p
}

// deal distributes the components to the workers if registrations
// changed since the last deal — components by runs, arenas by spans,
// and the gates' slots and elements with them — and reports whether it
// did.
func (p *pool) deal(e *Engine) bool {
	if p.sharded == len(e.components) {
		return false
	}
	p.sharded = len(e.components)
	for i := range p.shards {
		p.shards[i] = p.shards[i][:0]
		p.spans[i] = p.spans[i][:0]
	}
	p.serial = p.serial[:0]
	p.owner = make([]int32, len(e.components))
	var dealt []int
	for i, c := range e.components {
		if _, ok := c.(SerialTicker); ok {
			p.serial = append(p.serial, c)
			p.owner[i] = coordinator
		} else if e.arenaOf(c) >= 0 { // an arena is dealt by index range below, not as a whole
			p.owner[i] = arenaSlot
		} else {
			dealt = append(dealt, i)
		}
	}
	p.dealRuns(e.components, dealt)
	dealSpans(e.arenas, p.spans)
	p.deals++
	p.shareGates(e)
	return true
}

// owner values of the registry slots no worker walks.
const (
	coordinator int32 = -1 // a SerialTicker
	arenaSlot   int32 = -2 // an arena, walked by spans
)

// dealRuns deals the listed registry slots to the workers one run at a
// time — a run is consecutive registrations of one concrete type —
// cutting each run into contiguous index ranges as dealSpans cuts an
// arena. The platform registers its generators and its receptors in
// endpoint order, and endpoint order follows the switch arena's element
// order, so a generator or receptor lands on the worker whose span
// holds its switch and the flits between them stay on one core.
func (p *pool) dealRuns(comps []Component, slots []int) {
	for lo := 0; lo < len(slots); {
		t, hi := reflect.TypeOf(comps[slots[lo]]), lo+1
		for hi < len(slots) && reflect.TypeOf(comps[slots[hi]]) == t {
			hi++
		}
		run := slots[lo:hi]
		deal(len(run), len(p.shards), func(w, a, b int) {
			for _, i := range run[a:b] {
				p.shards[w] = append(p.shards[w], comps[i])
				p.owner[i] = int32(w)
			}
		})
		lo = hi
	}
}

// workerOf is the worker that owns a target on this pool: an arena
// element's span, a component's shard — the coordinator's for what no
// worker walks.
func (p *pool) workerOf(e *Engine, r ref) int32 {
	if r.arena >= 0 {
		return int32(dealtTo(int(r.elem), e.arenas[r.arena].Len(), len(p.shards)))
	}
	return max(p.owner[r.slot], 0)
}

// spawn starts the helpers for one run: they spin at the gate from the
// start, and exit at the run's stop (dismiss). Their bodies are bound
// once per pool, so a run allocates nothing to start them. A crew of
// one has none.
func (p *pool) spawn() {
	if len(p.shards) == 1 {
		return
	}
	if p.helpers == nil {
		for id := 1; id < len(p.shards); id++ {
			p.helpers = append(p.helpers, func() { p.crewWorker(id) })
		}
	}
	p.exited.Add(len(p.helpers))
	p.spawned = p.gate.epoch.Load()
	for _, h := range p.helpers {
		go h()
	}
}

// tick evaluates worker id's share of cycle c: its arena spans, then
// its components.
func (p *pool) tick(id int, c uint64) {
	for _, s := range p.spans[id] {
		s.a.TickRange(s.lo, s.hi, c)
	}
	for _, comp := range p.shards[id] {
		comp.Tick(c)
	}
}

// crewWorker is the body of a helper: it carries out the coordinator's
// releases of one run, from the epoch the run spawned it at, meeting it
// at the gate after each, until one says stop.
func (p *pool) crewWorker(id int) {
	defer p.exited.Done()
	for epoch := p.spawned; ; {
		var cmd uint32
		if epoch, cmd = p.gate.wait(epoch); cmd == cmdStop {
			return
		}
		switch cmd {
		case cmdTick:
			p.tick(id, p.next)
		case cmdGated:
			p.gates[id].tick(p.next)
		case cmdReport:
			p.gates[id].report(id, p.next)
		}
		p.gate.arrived.Add(1)
	}
}

// release starts a phase on the helpers; a crew of one has none to
// start.
func (p *pool) release(cmd uint32) {
	if len(p.shards) > 1 {
		p.gate.release(cmd)
	}
}

// join waits until every other worker has done its share of the phase.
func (p *pool) join() {
	if len(p.shards) > 1 {
		p.gate.waitOthers(int32(len(p.shards) - 1))
	}
}

// walk executes cycle c plainly: every shard ticks, and then the
// SerialTickers do, alone.
func (p *pool) walk(c uint64) {
	p.next = c
	p.release(cmdTick)
	p.tick(0, c)
	p.join()
	for _, comp := range p.serial {
		comp.Tick(c)
	}
}
