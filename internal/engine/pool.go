// The pooled walk: a cycle evaluated by a worker pool.
//
// The paper's FPGA evaluates every emulated device concurrently once
// per clock. A pool recovers that property in software: the registered
// components are partitioned into per-worker shards — runs of same-type
// registrations and arenas alike by contiguous index range, so that an
// endpoint's devices share a worker with their switch — and each cycle
// is one pass of every worker over its shard, ended by one barrier. An
// engine with workers (SetWorkers) walks every cycle on one; a gated
// engine without them, the stretches its gates stand down for, when
// the platform is big enough (duty.go). No component reads in a cycle
// what another wrote in it — the cycle boundary lives in the wires'
// parity slots and the switches' start-of-cycle occupancy — so the
// schedule is order-independent and any sharding produces results
// bit-identical to the sequential walks.
//
// Synchronization is built for cycle-rate use: the goroutines are
// spawned at the first run and sleep on a channel between runs (a
// stand-down stretch's exit when it ends, or its run does); within
// a run they free-run, meeting at one coordinator-released spin gate
// per cycle (no per-cycle goroutine spawning, no per-cycle channel
// traffic). The caller's goroutine is worker 0 and the coordinator: it
// evaluates its own shard and owns the gate's release. Between the
// last arrival and the next release — while the workers spin at the
// gate, on a fully executed cycle — it ticks the SerialTicker
// components alone, and the run loop (Engine.run) polls the stop
// predicate and looks for a window to skip. The stop decision is
// therefore exact.
//
// Gating: an engine's own pool parks nothing. Workers always walk their
// full shards (a quiet component's Tick is a no-op, so this is
// bit-identical to the gates' per-component parking), and the run loop
// fast-forwards over the windows in which every component reports quiet
// (nextWake), paying the skipped cycles into the per-cycle counters with
// SkipIdle. A stand-down stretch has nothing parked to begin with.
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
// the cycle it was released in, so the pool's ledger is the sequential
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

// pool is the state of a worker pool: the shards, the goroutines
// evaluating them and the gate they meet at. An engine with workers
// keeps one for good (Engine.pool); a gated engine without them hands
// its stand-down stretches to one (duty.go).
type pool struct {
	// shards are static per-worker component slices, rebuilt only when
	// the registration count changes (dealRuns).
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

	work   []chan struct{} // one sleeping goroutine per channel; nil until the first run
	exited sync.WaitGroup
	gate   gate
	// live says the workers are inside a run, spinning at the gate: a
	// cycle of this run has executed. next carries the cycle to
	// evaluate to them; it is written before the channel send or gate
	// release that starts the cycle and read after it, which orders it.
	live bool
	next uint64
}

// newPool returns a pool of n workers, the caller's goroutine among
// them; its goroutines start at the first enter.
func newPool(n int) *pool {
	return &pool{shards: make([][]Component, n), spans: make([][]arenaSpan, n), sharded: -1}
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
	var dealt []Component
	for _, c := range e.components {
		if q, ok := c.(Quiescable); ok {
			p.quies = append(p.quies, q)
		}
		if _, ok := c.(SerialTicker); ok {
			p.serial = append(p.serial, c)
		} else if e.arenaOf(c) < 0 { // an arena is dealt by index range below, not as a whole
			dealt = append(dealt, c)
		}
	}
	if len(p.quies) != len(e.components) {
		p.quies = p.quies[:0]
	}
	dealRuns(dealt, p.shards)
	dealSpans(e.arenas, p.spans)
}

// dealRuns deals components to the shards one run at a time — a run is
// consecutive registrations of one concrete type — cutting each run into
// contiguous index ranges as dealSpans cuts an arena. The platform
// registers its generators and its receptors in endpoint order, and
// endpoint order follows the switch arena's element order, so a
// generator or receptor lands on the worker whose span holds its switch
// and the flits between them stay on one core.
func dealRuns(comps []Component, out [][]Component) {
	for lo := 0; lo < len(comps); {
		t, hi := reflect.TypeOf(comps[lo]), lo+1
		for hi < len(comps) && reflect.TypeOf(comps[hi]) == t {
			hi++
		}
		run := comps[lo:hi]
		deal(len(run), len(out), func(w, a, b int) { out[w] = append(out[w], run[a:b]...) })
		lo = hi
	}
}

// close ends the pool's goroutines — asleep between runs, they exit at
// once — and returns when they have. The next enter starts them afresh.
func (p *pool) close() {
	for _, ch := range p.work {
		close(ch)
	}
	p.work = nil
	p.exited.Wait()
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

// runWorker is the pool goroutine body: sleep on the channel, then
// free-run, meeting the coordinator at the gate after each cycle until a
// release says stop.
func (p *pool) runWorker(id int, wake chan struct{}) {
	defer p.exited.Done()
	epoch := p.gate.epoch.Load()
	for range wake {
		for cmd := cmdGo; cmd != cmdStop; {
			p.tick(id, p.next)
			epoch, cmd = p.gate.await(epoch)
		}
	}
}

// walk executes cycle c: the first of a run wakes the workers, a later
// one releases them from the gate, where walk leaves them again once
// every shard has ticked and the SerialTickers have, alone.
func (p *pool) walk(c uint64) {
	p.next = c
	if p.live {
		p.gate.release(cmdGo)
	} else {
		p.live = true
		for _, ch := range p.work {
			ch <- struct{}{}
		}
	}
	p.tick(0, c)
	p.gate.waitOthers(int32(len(p.work)))
	for _, comp := range p.serial {
		comp.Tick(c)
	}
}

// leave sends the workers back to sleep.
func (p *pool) leave() {
	if p.live {
		p.live = false
		p.gate.release(cmdStop)
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
