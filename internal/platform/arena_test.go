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

// allocsPerRun is testing.AllocsPerRun at the test's GOMAXPROCS —
// AllocsPerRun pins it to 1, where every run walks on a crew of one: after one
// warming call it calls f runs times and returns the objects allocated
// and the flits p's pool grew by, per call.
func allocsPerRun(p *platform.Platform, runs int, f func()) (avg, grown float64) {
	f()
	flits := p.Pool().Allocated()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(p.Pool().Allocated()-flits) / float64(runs)
}

// TestMeshSteadyStateZeroAlloc is the at-scale allocation guard: on a
// 16×16 mesh (256 nodes, the paper-scale target) the cycle loop must
// allocate nothing once the flit pool has reached its high-water mark
// on one processor, where every run walks on a crew of one. At the
// test's GOMAXPROCS every run walks on a crew with helpers,
// and may allocate besides the flits the pool grows by only what the
// runtime takes to start a helper goroutine: two objects per helper at
// most, as TestCrewRunAllocs bounds it.
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
	p.RunCycles(50_000)
	avg := testing.AllocsPerRun(20, func() {
		p.RunCycles(100)
	})
	if avg > 0 {
		t.Errorf("256-node mesh RunCycles allocates %.1f objects per 100 cycles, want 0", avg)
	}
	pooled := p.Engine().PooledCycles()
	avg, grown := allocsPerRun(p, 20, func() { p.RunCycles(100) })
	helpers := min(runtime.GOMAXPROCS(0), 16*16/64) - 1
	if avg-grown > float64(2*helpers) {
		t.Errorf("at GOMAXPROCS %d RunCycles(100) allocates %.1f objects per run, the flit pool %.1f of them; want at most %d more",
			runtime.GOMAXPROCS(0), avg, grown, 2*helpers)
	}
	if crew := p.Engine().PooledCycles() - pooled; (crew == 21*100) != (helpers > 0) {
		t.Errorf("%d of the runs' %d cycles walked on a crew at GOMAXPROCS %d", crew, 21*100, runtime.GOMAXPROCS(0))
	}
}

// TestCrewRunAllocs is the run-entry allocation guard: every run of a
// warmed 32×32 mesh at 0.02 hires a crew where the host has the
// processors and lets it go at the end, and what the crew is built from
// stays from run to run. So RunCycles(400) allocates nothing beyond the
// flits the pool still grows by but what the runtime now and then takes
// to start a helper goroutine — 0 to 1 object a run on two processors,
// bounded here by two per helper — where a crew built afresh for every
// run took about 40. On one processor the run walks on a crew of one,
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
	avg, grown := allocsPerRun(p, 10, func() { p.RunCycles(400) })
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
// (On a crew of four forced on any host: the engine package's
// TestCrewDrainLeakFree.)
func TestMeshDrainLeakFree(t *testing.T) {
	cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(16), Injection: 0.1})
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
		t.Errorf("%d flits still live after drain, want 0", live)
	}
}
