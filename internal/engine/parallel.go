// Parallel two-phase kernel.
//
// The paper's FPGA evaluates every emulated device concurrently once
// per clock. ParallelEngine recovers that property in software: the
// registered components are partitioned into per-worker shards and each
// cycle is driven as two barrier-synchronized phases (Tick, Commit)
// over a persistent goroutine pool. Because the two-phase protocol
// guarantees a component reads only committed state during Tick, the
// schedule is order-independent within each phase, so any sharding
// produces results bit-identical to the sequential Engine.
//
// Synchronization is built for cycle-rate use: workers are spawned once
// and park on a channel between runs; within a run they free-run whole
// batches of cycles, meeting at two coordinator-released spin gates per
// cycle (no per-cycle goroutine spawning, no per-cycle channel
// traffic). The caller's goroutine is worker 0 and the coordinator: it
// evaluates its own shard, runs SerialTicker components alone between
// the gates, and — because it owns the commit-gate release — polls the
// cached Stopper/Aborter lists while the pool is quiesced. The poll is
// therefore exact: the stop decision for cycle c+1 is taken after
// cycle c is fully committed and before any worker begins c+1, so the
// stop cycle matches the sequential kernel bit-for-bit. Batch dispatch
// amortizes the expensive coordination (worker wake/park, shard
// refresh) over the whole run; the per-cycle stop check is a handful of
// interface calls folded into a gate release the coordinator performs
// anyway. A coarser every-K-cycles poll was rejected: per-cycle
// counters (switch cycles, link utilization) advance even in an idle
// network, so overshooting the stop cycle by even one cycle would break
// bit-identity with the sequential kernel.
//
// Flit ownership under sharding: a flit handed from one component to
// another (via a link) may cross worker shards, but the two-phase
// protocol already serializes that handoff — the sender stages during
// Tick, the link publishes during Commit, the receiver reads a
// committed pointer next Tick, all separated by the gates' barriers.
// The one cross-shard mutation outside that pattern is flit.Pool
// release: an ejector on worker A may release a flit whose home shard
// is drained by an injector on worker B. The pool carries that handoff
// on a per-shard MPSC atomic stack (CAS push by any worker, take-all
// swap by the owner), so no gate ordering is required and reuse timing
// cannot perturb simulation state: Acquire fully resets the flit, and
// no component observes flit pointer identity.
package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Gate release commands, carried from the coordinator to the workers.
const (
	cmdGo uint32 = iota
	cmdStop
)

// spinYield bounds the busy-wait at a gate before the spinner yields
// the processor, so the kernel stays live (if slow) even with more
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

// ParallelEngine drives an Engine's component schedule with a sharded
// worker pool. It shares the Engine's registry and cycle counter, so
// Lookup/Names/Cycle on the underlying Engine stay valid, and it
// satisfies Kernel (and control.Runner) as a drop-in replacement for
// the sequential kernel. It is not safe for concurrent use by multiple
// goroutines, exactly like Engine.
type ParallelEngine struct {
	eng     *Engine
	workers int

	// shards are static per-worker component slices, rebuilt only when
	// the registration count changes. Components are dealt round-robin:
	// the platform registers devices grouped by type, so interleaving
	// gives every shard a mix of cheap wires and expensive switches.
	shards [][]Component
	// spans partitions every registered arena's index range into one
	// contiguous slice per worker (arena.go): an arena is too big to be
	// one shard entry, so workers split its population by index while
	// the arena still registers (and gates) as a single component.
	spans   [][]arenaSpan
	serial  []Component // SerialTicker components, coordinator-only
	sharded int         // registration count the shards were built from

	work       []chan struct{} // one parked worker per channel
	tickGate   gate
	commitGate gate
	batchStart uint64
	closed     bool

	// Quiescence gating (see quiesce.go). The parallel kernel gates the
	// schedule as a whole rather than per component: workers always walk
	// their full shards (a quiet component's Tick/Commit is a no-op, so
	// this is bit-identical to the sequential kernel's per-component
	// parking), and the coordinator — inside the quiesced window it
	// already owns for stop polling — fast-forwards the cycle counter
	// whenever every component reports quiet, paying the skipped cycles
	// into the per-cycle counters with SkipIdle. nextCycle carries the
	// (possibly fast-forwarded) cycle to the workers; it is written
	// before the commit-gate release and read after the await, so the
	// gate's epoch atomic orders it.
	gated         bool
	quies         []Quiescable
	allQuiescable bool
	nextCycle     uint64
}

// NewParallel builds a parallel kernel over eng with the given worker
// count (>= 1). Worker 0 is the calling goroutine; workers-1 pool
// goroutines are spawned immediately and park between runs. Workers may
// exceed the component count; surplus shards are empty. Call Close to
// release the pool.
func NewParallel(eng *Engine, workers int) (*ParallelEngine, error) {
	if eng == nil {
		return nil, fmt.Errorf("engine: parallel kernel over nil engine")
	}
	if workers < 1 {
		return nil, fmt.Errorf("engine: parallel kernel with %d workers", workers)
	}
	p := &ParallelEngine{
		eng:     eng,
		workers: workers,
		shards:  make([][]Component, workers),
		spans:   make([][]arenaSpan, workers),
		sharded: -1,
		work:    make([]chan struct{}, workers-1),
	}
	for i := range p.work {
		p.work[i] = make(chan struct{})
		go p.runWorker(i+1, p.work[i])
	}
	return p, nil
}

// Engine returns the underlying engine (registry, cycle counter).
func (p *ParallelEngine) Engine() *Engine { return p.eng }

// Workers returns the configured worker count.
func (p *ParallelEngine) Workers() int { return p.workers }

// Cycle returns the number of completed cycles.
func (p *ParallelEngine) Cycle() uint64 { return p.eng.Cycle() }

// Reset rewinds the cycle counter and re-arms cached run-control
// state without touching component state (see Engine.Reset).
func (p *ParallelEngine) Reset() { p.eng.Reset() }

// SetGated enables or disables quiescence-aware cycle skipping for
// this kernel. Unlike the sequential engine the parallel kernel needs
// no arm hooks: every component is still evaluated each executed
// cycle, and only globally idle windows are skipped.
func (p *ParallelEngine) SetGated(on bool) { p.gated = on }

// Gated reports whether quiescence-aware cycle skipping is enabled.
func (p *ParallelEngine) Gated() bool { return p.gated }

// Close releases the worker pool. The kernel must not be used after
// Close; the underlying Engine remains usable. Close is idempotent.
func (p *ParallelEngine) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.work {
		close(ch)
	}
}

// refreshShards redistributes the components if registrations changed
// since the last run. Runs only while the pool is parked.
func (p *ParallelEngine) refreshShards() {
	if p.sharded == len(p.eng.components) {
		return
	}
	p.sharded = len(p.eng.components)
	for i := range p.shards {
		p.shards[i] = p.shards[i][:0]
	}
	for i := range p.spans {
		p.spans[i] = p.spans[i][:0]
	}
	p.serial = p.serial[:0]
	w := 0
	for _, c := range p.eng.components {
		if _, ok := c.(SerialTicker); ok {
			p.serial = append(p.serial, c)
			continue
		}
		if p.eng.arenaOf(c) >= 0 {
			continue // dealt by index range below, not as a whole
		}
		p.shards[w] = append(p.shards[w], c)
		w = (w + 1) % len(p.shards)
	}
	dealSpans(p.eng.arenas, p.spans)
	// Quiescence scoreboard: global fast-forward is possible only when
	// every registered component can declare idleness.
	p.quies = p.quies[:0]
	p.allQuiescable = true
	for _, c := range p.eng.components {
		q, ok := c.(Quiescable)
		if !ok {
			p.allQuiescable = false
			break
		}
		p.quies = append(p.quies, q)
	}
}

// runWorker is the pool goroutine body: park on the channel, then
// free-run the dispatched batch, meeting the coordinator at the two
// gates each cycle until a release says stop.
func (p *ParallelEngine) runWorker(id int, wake chan struct{}) {
	te := p.tickGate.epoch.Load()
	ce := p.commitGate.epoch.Load()
	for range wake {
		shard := p.shards[id]
		spans := p.spans[id]
		cycle := p.batchStart
		for {
			for _, s := range spans {
				s.a.TickRange(s.lo, s.hi, cycle)
			}
			for _, c := range shard {
				c.Tick(cycle)
			}
			te, _ = p.tickGate.await(te)
			for _, s := range spans {
				s.a.CommitRange(s.lo, s.hi, cycle)
			}
			for _, c := range shard {
				c.Commit(cycle)
			}
			var cmd uint32
			ce, cmd = p.commitGate.await(ce)
			if cmd == cmdStop {
				break
			}
			// The coordinator publishes the next cycle before the
			// release; normally cycle+1, further ahead after a
			// quiescence fast-forward.
			cycle = p.nextCycle
		}
	}
}

// runBatch executes up to max cycles through the pool. With polling
// enabled it evaluates the sequential kernel's stop predicate before
// every cycle — including before the first — so the stop cycle is
// bit-identical to Engine.RunUntil.
func (p *ParallelEngine) runBatch(max uint64, poll bool) (executed uint64, stopped bool) {
	if p.closed {
		panic("engine: parallel kernel used after Close")
	}
	if max == 0 {
		return 0, false
	}
	if poll {
		if stop, byStopper := p.eng.pollStop(); stop {
			return 0, byStopper
		}
	}
	p.refreshShards()
	p.batchStart = p.eng.cycle
	others := int32(p.workers - 1)
	for _, ch := range p.work {
		ch <- struct{}{}
	}
	shard := p.shards[0]
	spans := p.spans[0]
	for {
		c := p.eng.cycle
		for _, s := range spans {
			s.a.TickRange(s.lo, s.hi, c)
		}
		for _, comp := range shard {
			comp.Tick(c)
		}
		p.tickGate.waitOthers(others)
		for _, comp := range p.serial {
			comp.Tick(c)
		}
		p.tickGate.release(cmdGo)
		for _, s := range spans {
			s.a.CommitRange(s.lo, s.hi, c)
		}
		for _, comp := range shard {
			comp.Commit(c)
		}
		for _, comp := range p.serial {
			comp.Commit(c)
		}
		p.commitGate.waitOthers(others)
		p.eng.cycle++
		executed++
		if executed >= max {
			p.commitGate.release(cmdStop)
			return executed, false
		}
		// The stop poll must run before any fast-forward: the quiet
		// contract guarantees no Stopper/Aborter answer changes inside a
		// skipped window, but the answer as of the next cycle must be
		// honoured before skipping anything — exactly as the sequential
		// gated kernel polls at the top of its loop.
		if poll {
			if stop, byStopper := p.eng.pollStop(); stop {
				p.commitGate.release(cmdStop)
				return executed, byStopper
			}
		}
		if p.gated && p.allQuiescable {
			executed += p.fastForward(c, max-executed)
			if executed >= max {
				p.commitGate.release(cmdStop)
				return executed, false
			}
		}
		p.nextCycle = p.eng.cycle
		p.commitGate.release(cmdGo)
	}
}

// fastForward runs in the coordinator's quiesced window after cycle
// committed has fully committed. If every component is quiet it jumps
// the cycle counter to the earliest wake (bounded by the remaining
// budget), paying the skipped cycles into every component's per-cycle
// counters, and returns the number of cycles skipped. The quiet
// contract guarantees the skipped Tick/Commit pairs would have been
// no-ops and that no Stopper/Aborter answer changes inside the skipped
// window, so results — including the stop cycle — stay bit-identical.
func (p *ParallelEngine) fastForward(committed, budget uint64) uint64 {
	minWake := NeverWake
	for _, q := range p.quies {
		w, quiet := q.NextWake(committed)
		if !quiet {
			return 0
		}
		if w < minWake {
			minWake = w
		}
	}
	target := p.eng.cycle + budget
	if target < p.eng.cycle { // overflow
		target = NeverWake
	}
	if minWake < target {
		target = minWake
	}
	if target <= p.eng.cycle {
		return 0
	}
	n := target - p.eng.cycle
	if p.eng.strace != nil {
		p.eng.strace.SchedFastForward(p.eng.cycle, target)
	}
	for _, q := range p.quies {
		q.SkipIdle(p.eng.cycle, n)
	}
	p.eng.cycle = target
	return n
}

// Step advances the simulation by exactly one cycle.
func (p *ParallelEngine) Step() { p.runBatch(1, false) }

// Run advances the simulation by n cycles and returns the number of
// cycles actually executed (always n).
func (p *ParallelEngine) Run(n uint64) uint64 {
	executed, _ := p.runBatch(n, false)
	return executed
}

// RunUntil steps the engine until every registered Stopper reports
// Done, until any Aborter fires, or until maxCycles have elapsed since
// the call — with semantics, and final state, bit-identical to the
// sequential Engine.RunUntil for any worker count.
func (p *ParallelEngine) RunUntil(maxCycles uint64) (executed uint64, stopped bool) {
	if len(p.eng.stoppers) == 0 && len(p.eng.aborters) == 0 {
		return p.Run(maxCycles), false
	}
	return p.runBatch(maxCycles, true)
}
