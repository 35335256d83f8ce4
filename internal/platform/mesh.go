package platform

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

// MeshOptions parameterizes a synthetic N×N mesh (or torus) platform
// with one traffic generator and one receptor per node — the
// large-scale scenario generator behind the scale tests and the
// topology studies. Everything is derived from the options and the
// seed, so two calls with equal options build bit-identical platforms.
type MeshOptions struct {
	// N is the side length: the platform has N×N switches, N×N sources
	// and N×N sinks (default 4).
	N int
	// Torus adds wrap-around links (requires N >= 3).
	Torus bool
	// Injection is the offered load per node in flits/cycle (default
	// 0.1). Each TG draws uniform inter-packet gaps sized so that its
	// long-run injection rate matches.
	Injection float64
	// PacketLen is the packet size in flits (default 4).
	PacketLen uint16
	// PacketsPerTG bounds each generator (0 = unlimited). Bounded
	// platforms drain and are used by the leak and identity tests;
	// unbounded ones feed fixed-cycle benchmarks.
	PacketsPerTG uint64
	// Seed is the platform base seed (0 uses the platform default).
	Seed uint32
	// Workers and NoGate select the kernel, as in Config.
	Workers int
	NoGate  bool
}

func (o *MeshOptions) applyDefaults() {
	if o.N == 0 {
		o.N = 4
	}
	if o.Injection == 0 {
		o.Injection = 0.1
	}
	if o.PacketLen == 0 {
		o.PacketLen = 4
	}
}

// MeshSink returns the sink endpoint attached to mesh node i (sources
// are the node index itself).
func MeshSink(n int, i int) flit.EndpointID {
	return flit.EndpointID(n*n + i)
}

// MeshConfig builds the configuration of an N×N mesh platform under
// uniform-random traffic: every node hosts one generator injecting
// fixed-length packets at the configured rate, each packet addressed
// uniformly at random to any other node's sink, routed XY (deadlock-
// free). It is a thin wrapper over NetConfig pinning the mesh/torus
// spec and the "uniform" workload; large N is the scale workload
// ROADMAP item 4 calls for.
func MeshConfig(o MeshOptions) (Config, error) {
	o.applyDefaults()
	if o.N < 1 {
		return Config{}, fmt.Errorf("platform: mesh size %d", o.N)
	}
	if o.Injection <= 0 || o.Injection > 1 {
		return Config{}, fmt.Errorf("platform: mesh injection %g out of (0,1]", o.Injection)
	}
	kind := "mesh"
	if o.Torus {
		kind = "torus"
	}
	cfg, err := NetConfig(NetOptions{
		Topo:         topology.Spec{Kind: kind, Param: map[string]int{"w": o.N, "h": o.N}},
		Workload:     "uniform",
		Injection:    o.Injection,
		PacketLen:    o.PacketLen,
		PacketsPerTG: o.PacketsPerTG,
		Seed:         o.Seed,
		Workers:      o.Workers,
		NoGate:       o.NoGate,
	})
	if err != nil {
		return Config{}, err
	}
	// The explicit scheme resolves to the same XY tables as the mesh
	// generator's automatic Router annotation; keeping it pins the
	// historical configuration surface.
	cfg.Routing = RoutingXY
	return cfg, nil
}
