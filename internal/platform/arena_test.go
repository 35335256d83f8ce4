// At-scale guards for the dense component arenas (DESIGN.md §12): a
// 16×16 mesh must run allocation-free in steady state and leak no
// pooled flits. (Output identity of the arena path is pinned by the
// golden traces and the gating matrices.)
package platform_test

import (
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
