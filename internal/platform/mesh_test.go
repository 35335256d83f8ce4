package platform

import (
	"fmt"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

// meshNet is NetOptions for an n×n mesh (or torus) under the default
// uniform workload.
func meshNet(kind string, n int, o NetOptions) NetOptions {
	o.Topo = topology.Spec{Kind: kind, Param: map[string]int{"w": n, "h": n}}
	return o
}

// TestMeshNetBuilds builds small mesh and torus platforms, runs
// them, and checks flit conservation end to end.
func TestMeshNetBuilds(t *testing.T) {
	for _, tc := range []struct {
		n    int
		kind string
	}{{2, "mesh"}, {4, "mesh"}, {4, "torus"}, {8, "mesh"}} {
		name := fmt.Sprintf("n=%d/%s", tc.n, tc.kind)
		t.Run(name, func(t *testing.T) {
			cfg, err := NetConfig(meshNet(tc.kind, tc.n, NetOptions{Injection: 0.2}))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(cfg.TGs); got != tc.n*tc.n {
				t.Fatalf("TGs = %d, want %d", got, tc.n*tc.n)
			}
			p, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.RunCycles(2_000)
			tot := p.Totals()
			if tot.FlitsSent == 0 {
				t.Fatal("no traffic injected")
			}
			if tot.FlitsReceived == 0 {
				t.Fatal("no traffic delivered")
			}
			if tot.FlitsReceived > tot.FlitsSent {
				t.Fatalf("flits received %d > sent %d", tot.FlitsReceived, tot.FlitsSent)
			}
			// Drain abandons in-flight flits; everything must return to
			// the pool.
			p.Drain()
			if live := p.Pool().Live(); live != 0 {
				t.Fatalf("pool leak: %d live flits after drain", live)
			}
		})
	}
}

// TestMeshNetDeterministic checks that two identically-configured
// mesh platforms produce identical statistics — the generator derives
// everything from the options and seed.
func TestMeshNetDeterministic(t *testing.T) {
	run := func() Totals {
		cfg, err := NetConfig(meshNet("mesh", 4, NetOptions{Injection: 0.3, Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(5_000)
		return p.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic mesh run:\n%+v\n%+v", a, b)
	}
}

// TestMeshNetLimits exercises bounded generators: with PacketsPerTG
// set, the platform drains to completion and every node's receptors
// collectively see every injected packet.
func TestMeshNetLimits(t *testing.T) {
	cfg, err := NetConfig(meshNet("mesh", 3, NetOptions{Injection: 0.5, PacketsPerTG: 20}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.RunCycles(1_000)
		if p.Drained() {
			break
		}
	}
	if !p.Drained() {
		t.Fatal("mesh failed to drain")
	}
	tot := p.Totals()
	want := uint64(9 * 20)
	if tot.PacketsReceived != want {
		t.Fatalf("packets received %d, want %d", tot.PacketsReceived, want)
	}
	if live := p.Pool().Live(); live != 0 {
		t.Fatalf("pool leak: %d live flits", live)
	}
}

// TestMeshNetValidation covers option errors.
func TestMeshNetValidation(t *testing.T) {
	if _, err := NetConfig(meshNet("mesh", -1, NetOptions{})); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := NetConfig(meshNet("torus", 2, NetOptions{})); err == nil {
		t.Error("2x2 torus accepted")
	}
	if _, err := NetConfig(NetOptions{Injection: 1.5}); err == nil {
		t.Error("injection > 1 accepted")
	}
}

// TestMeshSink pins the endpoint numbering contract: sources are node
// indices, sinks live above them.
func TestMeshSink(t *testing.T) {
	cfg, err := NetConfig(meshNet("mesh", 4, NetOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if src, sink := cfg.TGs[3].Endpoint, cfg.TRs[3].Endpoint; src != 3 || sink != flit.EndpointID(19) {
		t.Fatalf("node 3 of a 4x4 mesh: source %d, sink %d, want 3 and 19", src, sink)
	}
}
