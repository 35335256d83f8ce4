// At-scale guards for the dense component arenas (DESIGN.md §12): a
// 16×16 mesh must run allocation-free in steady state and leak no
// pooled flits. (Output identity of the arena path is pinned by the
// golden traces and the gating matrices.)
package platform_test

import (
	"runtime"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// mesh is the spec of an n×n mesh.
func mesh(n int) topology.Spec {
	return topology.Spec{Kind: "mesh", Param: map[string]int{"w": n, "h": n}}
}

// TestMeshSteadyStateZeroAlloc is the at-scale allocation guard: on a
// 16×16 mesh (256 nodes, the paper-scale target) the cycle loop must
// allocate nothing once the flit pool has reached its high-water mark.
func TestMeshSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(16), Injection: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.RunCycles(50_000)
	avg := testing.AllocsPerRun(20, func() {
		p.RunCycles(100)
	})
	if avg > 0 {
		t.Errorf("256-node mesh RunCycles allocates %.1f objects per 100 cycles, want 0", avg)
	}
}

// TestCrewRunAllocs is the run-entry allocation guard: every run of a
// warmed 32×32 mesh at 0.02 hires a crew where the host has the
// processors and lets it go at the end, and what the crew is built from
// stays from run to run. So RunCycles(400) allocates nothing beyond the
// flits the pool still grows by but what the runtime now and then takes
// to start a helper goroutine — 0 to 1 object a run on two processors,
// bounded here by two per helper — where a crew built afresh for every
// run took about 40. On one processor the run keeps the one-core walk,
// which allocates nothing.
func TestCrewRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(32), Injection: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(2_000)
	pooled := p.Engine().PooledCycles()
	// testing.AllocsPerRun, but at the test's GOMAXPROCS: it would run
	// on one processor, where no run hires a crew.
	p.RunCycles(400)
	flits := p.Pool().Allocated()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		p.RunCycles(400)
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.Mallocs-before.Mallocs) / 10
	grown := float64(p.Pool().Allocated()-flits) / 10
	helpers := min(runtime.GOMAXPROCS(0), 32*32/64) - 1
	if avg-grown > float64(2*helpers) {
		t.Errorf("RunCycles(400) allocates %.1f objects per run, the flit pool %.1f of them; want at most %d more", avg, grown, 2*helpers)
	}
	if crew := p.Engine().PooledCycles() - pooled; (crew == 11*400) != (runtime.GOMAXPROCS(0) > 1) || crew%(11*400) != 0 {
		t.Errorf("%d of the runs' %d cycles walked on a crew at GOMAXPROCS %d", crew, 11*400, runtime.GOMAXPROCS(0))
	}
}

// TestMeshDrainLeakFree is the at-scale pool guard: after draining a
// 16×16 mesh mid-flight, every pooled flit must be back on a freelist.
func TestMeshDrainLeakFree(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(16), Injection: 0.1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(3_000)
		p.Drain()
		if live := p.Pool().Live(); live != 0 {
			t.Errorf("workers=%d: %d flits still live after drain, want 0", workers, live)
		}
		p.Close()
	}
}
