package flit

import (
	"sync"
	"testing"
)

func TestShardAcquireReuses(t *testing.T) {
	p := NewPool()
	s := p.Shard("tg1", 1)
	f := s.Acquire(0)
	f.Src = 1
	f.Payload = 0xdead
	p.Release(f, 0)
	g := s.Acquire(1)
	if g != f {
		t.Error("released flit not reused")
	}
	if *g != (Flit{}) {
		t.Errorf("reused flit not reset: %+v", g)
	}
	if s.Allocated() != 1 || s.Acquired() != 2 || s.Released() != 1 {
		t.Errorf("ledger: allocated %d acquired %d released %d",
			s.Allocated(), s.Acquired(), s.Released())
	}
}

func TestPoolRoutesBySource(t *testing.T) {
	p := NewPool()
	s1 := p.Shard("tg1", 1)
	s2 := p.Shard("tg2", 2)
	f := s1.Acquire(0)
	f.Src = 2 // claims to come from endpoint 2
	p.Release(f, 0)
	if s2.Released() != 1 || s1.Released() != 0 {
		t.Errorf("release routed to wrong shard: s1=%d s2=%d", s1.Released(), s2.Released())
	}
	if got := s2.Acquire(1); got != f {
		t.Error("shard 2 did not recycle the released flit")
	}
}

func TestPoolLiveBalance(t *testing.T) {
	p := NewPool()
	s := p.Shard("tg3", 3)
	var live []*Flit
	for i := 0; i < 10; i++ {
		f := s.Acquire(0)
		f.Src = 3
		live = append(live, f)
	}
	if p.Live() != 10 {
		t.Fatalf("live = %d, want 10", p.Live())
	}
	for _, f := range live {
		p.Release(f, 1)
	}
	if p.Live() != 0 {
		t.Errorf("live = %d after full release", p.Live())
	}
	if p.Acquired() != 10 || p.Released() != 10 {
		t.Errorf("ledger: acquired %d released %d", p.Acquired(), p.Released())
	}
	// Steady state: the next acquire/release round creates nothing new.
	before := p.Allocated()
	f := s.Acquire(2)
	f.Src = 3
	p.Release(f, 2)
	if p.Allocated() != before {
		t.Errorf("steady-state acquire allocated (%d -> %d)", before, p.Allocated())
	}
}

func TestPoolOrphanRelease(t *testing.T) {
	p := NewPool()
	p.Shard("tg1", 1)
	f := &Flit{Src: 42} // no shard for endpoint 42
	p.Release(f, 0)     // must not panic or misroute
	if p.Released() != 1 {
		t.Errorf("orphan release not counted: %d", p.Released())
	}
	if p.Live() != -1 {
		t.Errorf("foreign release should show as negative live, got %d", p.Live())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	s := p.Shard("tg1", 1)
	f := s.Acquire(0)
	f.Src = 1
	p.Release(f, 0)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	p.Release(f, 1)
}

func TestNilShardAndPool(t *testing.T) {
	var s *Shard
	f := s.Acquire(0)
	if f == nil {
		t.Fatal("nil shard returned nil flit")
	}
	if s.Acquired() != 0 || s.Released() != 0 || s.Allocated() != 0 {
		t.Error("nil shard has nonzero counters")
	}
	var p *Pool
	p.Release(f, 0) // no-op
	if p.Live() != 0 || p.Acquired() != 0 || p.Released() != 0 || p.Allocated() != 0 {
		t.Error("nil pool has nonzero ledger")
	}
	if p.Shards() != nil {
		t.Error("nil pool has shards")
	}
}

// Concurrent releases into one shard (the parallel-kernel case: several
// receptors on different workers eject flits from the same source).
// Run under -race via `make race-all`.
func TestPoolConcurrentRelease(t *testing.T) {
	p := NewPool()
	s := p.Shard("tg1", 1)
	const goroutines, per = 8, 200
	flits := make([][]*Flit, goroutines)
	for g := range flits {
		for i := 0; i < per; i++ {
			f := s.Acquire(0)
			f.Src = 1
			flits[g] = append(flits[g], f)
		}
	}
	var wg sync.WaitGroup
	for g := range flits {
		wg.Add(1)
		go func(fs []*Flit) {
			defer wg.Done()
			for _, f := range fs {
				p.Release(f, 0)
			}
		}(flits[g])
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Fatalf("live = %d after concurrent release", p.Live())
	}
	// Everything must be recoverable through the owner's acquire path.
	seen := make(map[*Flit]bool)
	for i := 0; i < goroutines*per; i++ {
		f := s.Acquire(1)
		if seen[f] {
			t.Fatalf("flit %p handed out twice", f)
		}
		seen[f] = true
	}
	if alloc := s.Allocated(); alloc != goroutines*per {
		t.Errorf("allocated %d, want %d (reacquire should not allocate)", alloc, goroutines*per)
	}
}

// TestShardHoldsSameCycleReleases: an Acquire never reuses a flit
// released in its own cycle — on a pooled walk the releaser may tick on
// another worker, before the acquirer or after — so the ledger counts
// the allocation a sequential walk, which ticks every acquirer first,
// would have made. From the next cycle on such a flit is reused, held
// flits ahead of the ramp's.
func TestShardHoldsSameCycleReleases(t *testing.T) {
	p := NewPool()
	s := p.Shard("tg1", 1)
	var f [4]*Flit
	for i := range f {
		f[i] = s.Acquire(4)
		f[i].Src = 1
	}
	p.Release(f[0], 4)
	p.Release(f[1], 5)
	p.Release(f[2], 5)
	// In cycle 5 the two released in it are held, the one from cycle 4 is
	// reused, and then there is none to reuse.
	if g := s.Acquire(5); g != f[0] {
		t.Fatal("cycle 5 did not reuse the flit released in cycle 4")
	}
	p.Release(f[3], 5)
	if g := s.Acquire(5); g == f[1] || g == f[2] || g == f[3] || s.Allocated() != 5 {
		t.Fatalf("cycle 5 reused a flit released in it (allocated %d)", s.Allocated())
	}
	// Cycle 6 reuses the three held ones.
	seen := map[*Flit]bool{}
	for range 3 {
		seen[s.Acquire(6)] = true
	}
	if !seen[f[1]] || !seen[f[2]] || !seen[f[3]] || s.Allocated() != 5 {
		t.Errorf("cycle 6 reused %v of the flits released in cycle 5 (allocated %d)", seen, s.Allocated())
	}
}
