// The pooled walk: a cycle evaluated by a worker pool.
//
// The paper's FPGA evaluates every emulated device concurrently once
// per clock. An engine with workers (SetWorkers) recovers that property
// in software: the registered components are partitioned into per-worker
// shards and each cycle is driven as two barrier-synchronized phases
// (Tick, Commit). Because the two-phase protocol guarantees no
// component reads during Tick what another wrote in the same cycle, the
// schedule is order-independent within each phase, so any sharding
// produces results bit-identical to the sequential walks.
//
// Synchronization is built for cycle-rate use: the goroutines are
// spawned at the first run and sleep on a channel between runs; within
// a run they free-run, meeting at two coordinator-released spin gates
// per cycle (no per-cycle goroutine spawning, no per-cycle channel
// traffic). The caller's goroutine is worker 0 and the coordinator: it
// evaluates its own shard, runs SerialTicker components alone between
// the gates, and owns the commit-gate release — so between two cycles
// the workers spin at that gate while the run loop (Engine.run) polls
// the stop predicate and looks for a window to skip, on a fully
// committed cycle and before any worker begins the next. The stop
// decision is therefore exact.
//
// Gating: the pool parks nothing. Workers always walk their full shards
// (a quiet component's Tick/Commit is a no-op, so this is bit-identical
// to the gates' per-component parking), and the run loop fast-forwards
// over the windows in which every component reports quiet (nextWake),
// paying the skipped cycles into the per-cycle counters with SkipIdle.
//
// Flit ownership under sharding: a flit handed from one component to
// another (via a link) may cross worker shards, but the wire already
// serializes that handoff — the sender writes the slot of the next
// cycle's parity during Tick, the receiver reads it in the next cycle's
// Tick, the gates' barriers between them; within one phase the two
// touch different slots and flag banks.
// The one cross-shard mutation outside that pattern is flit.Pool
// release: an ejector on worker A may release a flit whose home shard
// is drained by an injector on worker B. The pool carries that handoff
// on a per-shard MPSC atomic stack (CAS push by any worker, take-all
// swap by the owner), so no gate ordering is required and reuse timing
// cannot perturb simulation state: Acquire fully resets the flit, and
// no component observes flit pointer identity.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Gate release commands, carried from the coordinator to the workers.
const (
	cmdGo uint32 = iota
	cmdStop
)

// spinYield bounds the busy-wait at a gate before the spinner yields
// the processor, so the engine stays live (if slow) even with more
// workers than GOMAXPROCS.
const spinYield = 128

// gate is a coordinator-released barrier. Workers atomically announce
// arrival and spin on the epoch word; the coordinator waits for all
// arrivals, performs its serialized work, and releases the epoch with a
// command. The fields are padded apart so worker arrival traffic does
// not bounce the cache line the release is published on.
type gate struct {
	arrived atomic.Int32
	_       [60]byte
	epoch   atomic.Uint32
	cmd     atomic.Uint32
	_       [56]byte
}

// await announces arrival and spins until the epoch moves past last,
// returning the new epoch and the release command.
func (g *gate) await(last uint32) (uint32, uint32) {
	g.arrived.Add(1)
	for spins := 0; ; spins++ {
		if e := g.epoch.Load(); e != last {
			return e, g.cmd.Load()
		}
		if spins >= spinYield {
			runtime.Gosched()
			spins = 0
		}
	}
}

// waitOthers spins until n workers have arrived, then re-arms the
// arrival counter for the next use of this gate.
func (g *gate) waitOthers(n int32) {
	for spins := 0; g.arrived.Load() != n; spins++ {
		if spins >= spinYield {
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

// pool is the state of an engine with workers: the shards, the
// goroutines evaluating them and the two gates they meet at.
type pool struct {
	// shards are static per-worker component slices, rebuilt only when
	// the registration count changes. Components are dealt round-robin:
	// the platform registers devices grouped by type, so interleaving
	// gives every shard a mix of cheap wires and expensive switches.
	shards [][]Component
	// spans partitions every registered arena's index range into one
	// contiguous slice per worker (arena.go): an arena is too big to be
	// one shard entry, so workers split its population by index while
	// the arena still registers as a single component.
	spans   [][]arenaSpan
	serial  []Component // SerialTicker components, coordinator-only
	sharded int         // registration count the shards were built from
	// quies is every component as a Quiescable — empty unless all of
	// them are, the condition for skipping anything.
	quies []Quiescable

	work       []chan struct{} // one sleeping goroutine per channel; nil until the first run
	exited     sync.WaitGroup
	tickGate   gate
	commitGate gate
	// live says the workers are inside a run, spinning at the commit
	// gate: a cycle of this run has executed. next carries the cycle to
	// evaluate to them; it is written before the channel send or gate
	// release that starts the cycle and read after it, which orders it.
	live bool
	next uint64
}

// enter readies the pool for a run, while every worker sleeps: the
// goroutines are spawned at the first one, and the components are
// redistributed if registrations changed since the last.
func (p *pool) enter(e *Engine) {
	if p.work == nil {
		p.work = make([]chan struct{}, len(p.shards)-1)
		p.exited.Add(len(p.work))
		for i := range p.work {
			p.work[i] = make(chan struct{})
			go p.runWorker(i+1, p.work[i])
		}
	}
	if p.sharded == len(e.components) {
		return
	}
	p.sharded = len(e.components)
	for i := range p.shards {
		p.shards[i] = p.shards[i][:0]
		p.spans[i] = p.spans[i][:0]
	}
	p.serial = p.serial[:0]
	p.quies = p.quies[:0]
	w := 0
	for _, c := range e.components {
		if q, ok := c.(Quiescable); ok {
			p.quies = append(p.quies, q)
		}
		if _, ok := c.(SerialTicker); ok {
			p.serial = append(p.serial, c)
		} else if e.arenaOf(c) < 0 { // an arena is dealt by index range below, not as a whole
			p.shards[w] = append(p.shards[w], c)
			w = (w + 1) % len(p.shards)
		}
	}
	if len(p.quies) != len(e.components) {
		p.quies = p.quies[:0]
	}
	dealSpans(e.arenas, p.spans)
}

// tick and commit evaluate one phase of worker id's share of the
// schedule: its arena spans, then its components.
func (p *pool) tick(id int, c uint64) {
	for _, s := range p.spans[id] {
		s.a.TickRange(s.lo, s.hi, c)
	}
	for _, comp := range p.shards[id] {
		comp.Tick(c)
	}
}

func (p *pool) commit(id int, c uint64) {
	for _, s := range p.spans[id] {
		s.a.CommitRange(s.lo, s.hi, c)
	}
	for _, comp := range p.shards[id] {
		comp.Commit(c)
	}
}

// runWorker is the pool goroutine body: sleep on the channel, then
// free-run, meeting the coordinator at the two gates each cycle until a
// release says stop.
func (p *pool) runWorker(id int, wake chan struct{}) {
	defer p.exited.Done()
	te := p.tickGate.epoch.Load()
	ce := p.commitGate.epoch.Load()
	for range wake {
		for cmd := cmdGo; cmd != cmdStop; {
			c := p.next
			p.tick(id, c)
			te, _ = p.tickGate.await(te)
			p.commit(id, c)
			ce, cmd = p.commitGate.await(ce)
		}
	}
}

// walk executes cycle c: the first of a run wakes the workers, a later
// one releases them from the commit gate, where walk leaves them again
// once everything has committed. SerialTickers tick alone, between the
// arrivals at the tick gate and its release.
func (p *pool) walk(c uint64) {
	p.next = c
	if p.live {
		p.commitGate.release(cmdGo)
	} else {
		p.live = true
		for _, ch := range p.work {
			ch <- struct{}{}
		}
	}
	others := int32(len(p.work))
	p.tick(0, c)
	p.tickGate.waitOthers(others)
	for _, comp := range p.serial {
		comp.Tick(c)
	}
	p.tickGate.release(cmdGo)
	p.commit(0, c)
	for _, comp := range p.serial {
		comp.Commit(c)
	}
	p.commitGate.waitOthers(others)
}

// leave sends the workers back to sleep.
func (p *pool) leave() {
	if p.live {
		p.live = false
		p.commitGate.release(cmdStop)
	}
}

// nextWake reports whether every component is quiet as of the cycle
// before next, and until when. It needs that cycle to have executed in
// this run: what happened between runs is seen by evaluating a cycle,
// as the gates do by re-activating every component at entry.
func (p *pool) nextWake(next uint64) (wake uint64, quiet bool) {
	if !p.live || len(p.quies) == 0 {
		return 0, false
	}
	wake = NeverWake
	for _, q := range p.quies {
		w, quiet := q.NextWake(next - 1)
		if !quiet {
			return 0, false
		}
		if w < wake {
			wake = w
		}
	}
	return wake, true
}
