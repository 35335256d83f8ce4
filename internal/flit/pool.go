// Flit pooling: the fixed-resource datapath of the emulator.
//
// The FPGA platform the paper describes never allocates: every flit a
// traffic generator emits occupies a preexisting register or RAM slot,
// and ejecting a flit frees that slot for reuse. Pool recovers the same
// property in software. Each injecting endpoint owns a Shard — a
// private freelist it acquires flits from — and every terminal point of
// the datapath (ejector accept, fault drop, end-of-run drain) releases
// flits back to the shard of their source endpoint. In steady state the
// flit population is therefore constant and the per-cycle allocation
// rate is zero, so emulation speed no longer degrades with offered
// load (the axis the paper's Table 2 sweeps).
//
// Concurrency: the pool composes with an engine that has workers, where the
// acquiring component (a TG) and the releasing component (a TR) may
// tick on different workers in the same cycle. Acquire is owner-only
// and touches only the shard's private freelist; Release may be called
// from any goroutine and pushes onto the shard's "return ramp", a
// Treiber stack over an atomic pointer (CAS push; the owner takes the
// whole stack with a single Swap, so there is no ABA window). The
// release CAS / acquire Swap pair also carries the happens-before edge
// that hands the flit's memory from the releasing worker to the
// acquiring one, so the refill path is race-clean without locks.
//
// Determinism: which *Flit object* an Acquire returns can differ
// between runs (cross-worker release order is timing-dependent), but
// Acquire fully resets the flit, and no simulation state depends on
// flit object identity — so results stay bit-identical across worker
// counts, which the platform's worker-matrix property tests enforce.
package flit

import (
	"fmt"
	"sync/atomic"
)

// Shard is one endpoint's private flit freelist. Acquire must only be
// called by the shard's owning component (single goroutine per cycle);
// Release on the parent Pool may be called by anyone.
//
// A nil *Shard is valid and simply allocates: Acquire on nil returns a
// fresh heap flit. Components take an optional shard and work unpooled
// when handed nil, which keeps unit-test wiring trivial.
type Shard struct {
	name  string
	owner EndpointID

	// free is the owner-only intrusive LIFO freelist.
	free *Flit
	// ramp is the multi-producer return stack: any goroutine CAS-pushes
	// released flits here; the owner drains it wholesale when free runs
	// dry.
	ramp atomic.Pointer[Flit]

	// acquired and allocated are owner-written plain counters; released
	// is atomic because any goroutine may release.
	acquired  uint64
	allocated uint64
	released  atomic.Uint64
}

// Name returns the shard's instance name.
func (s *Shard) Name() string { return s.name }

// Owner returns the endpoint whose flits recycle through this shard.
func (s *Shard) Owner() EndpointID { return s.owner }

// Acquire returns a zeroed flit, reusing a released one when available.
// Owner-only. On a nil shard it falls back to plain allocation.
func (s *Shard) Acquire() *Flit {
	if s == nil {
		return &Flit{}
	}
	f := s.free
	if f == nil {
		// Local list dry: take the whole return ramp in one swap.
		f = s.ramp.Swap(nil)
		if f == nil {
			s.acquired++
			s.allocated++
			return &Flit{}
		}
	}
	s.free = f.next
	*f = Flit{}
	s.acquired++
	return f
}

// release pushes f onto the return ramp. Safe from any goroutine.
func (s *Shard) release(f *Flit) {
	if f.pooled {
		panic(fmt.Sprintf("flit: double release of %s (shard %s)", f, s.name))
	}
	f.pooled = true
	for {
		head := s.ramp.Load()
		f.next = head
		if s.ramp.CompareAndSwap(head, f) {
			break
		}
	}
	s.released.Add(1)
}

// Acquired returns the number of Acquire calls served.
func (s *Shard) Acquired() uint64 {
	if s == nil {
		return 0
	}
	return s.acquired
}

// Released returns the number of flits returned to this shard.
func (s *Shard) Released() uint64 {
	if s == nil {
		return 0
	}
	return s.released.Load()
}

// Allocated returns how many flits Acquire had to create because
// nothing was available for reuse — the pool's high-water population.
func (s *Shard) Allocated() uint64 {
	if s == nil {
		return 0
	}
	return s.allocated
}

// Pool routes released flits back to the shard of their source
// endpoint. Build it once per platform: NewPool, then Shard() per
// injecting endpoint, then share the Pool with every releasing
// component. The shard index is read-only after construction, so
// Release is safe from any goroutine.
//
// A nil *Pool is valid: Release on nil is a no-op (the flit goes to the
// garbage collector), matching the nil-Shard allocation fallback.
type Pool struct {
	shards []*Shard
	byEP   []*Shard // indexed by owner endpoint; nil where none owns a shard
	// orphan collects released flits whose source has no shard (flits
	// built outside the pool); they become reusable spares for nobody
	// but still count in the ledger, keeping Live exact.
	orphan Shard
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{}
	p.orphan.name = "orphan"
	return p
}

// Shard creates (or returns) the freelist for an injecting endpoint.
// Must be called during construction, before Release can race with it.
func (p *Pool) Shard(name string, owner EndpointID) *Shard {
	for int(owner) >= len(p.byEP) {
		p.byEP = append(p.byEP, nil)
	}
	if s := p.byEP[owner]; s != nil {
		return s
	}
	s := &Shard{name: name, owner: owner}
	p.shards = append(p.shards, s)
	p.byEP[owner] = s
	return s
}

// Release returns a flit to the shard of its source endpoint. Safe from
// any goroutine; releasing the same flit twice panics. On a nil pool it
// is a no-op.
func (p *Pool) Release(f *Flit) {
	if p == nil || f == nil {
		return
	}
	s := &p.orphan
	if int(f.Src) < len(p.byEP) && p.byEP[f.Src] != nil {
		s = p.byEP[f.Src]
	}
	s.release(f)
}

// Shards returns the per-endpoint shards in creation order.
func (p *Pool) Shards() []*Shard {
	if p == nil {
		return nil
	}
	return p.shards
}

// Acquired sums Acquire calls across all shards.
func (p *Pool) Acquired() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, s := range p.shards {
		n += s.acquired
	}
	return n
}

// Released sums released flits across all shards (orphans included).
func (p *Pool) Released() uint64 {
	if p == nil {
		return 0
	}
	n := p.orphan.released.Load()
	for _, s := range p.shards {
		n += s.released.Load()
	}
	return n
}

// Live returns acquired minus released: the number of flits currently
// owned by the datapath. After a run has fully drained it must be zero;
// a positive residue is a leak, a negative one a foreign release. Call
// it only while the platform is quiesced (between runs), like any other
// statistic.
func (p *Pool) Live() int64 {
	if p == nil {
		return 0
	}
	return int64(p.Acquired()) - int64(p.Released())
}

// Allocated sums the flits ever created across all shards — the peak
// live population, which in steady state stops growing.
func (p *Pool) Allocated() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, s := range p.shards {
		n += s.allocated
	}
	return n
}
