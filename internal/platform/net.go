package platform

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// NetOptions parameterizes a synthetic platform over any registered
// topology generator and any registered workload — the zoo builder
// behind the -topo/-wl CLI flags and the scale benchmarks. Everything
// is derived from the options and the seeds, so two calls with equal
// options build bit-identical platforms.
type NetOptions struct {
	// Topo is the declarative topology spec (default mesh).
	Topo topology.Spec
	// Workload names a registered traffic recipe (default "uniform").
	Workload string
	// Injection is the offered load per terminal in flits/cycle
	// (default 0.1).
	Injection float64
	// PacketLen is the packet size in flits (default 4).
	PacketLen uint16
	// PacketsPerTG bounds each generator (0 = unlimited).
	PacketsPerTG uint64
	// Seed is the platform base seed (0 uses the platform default).
	Seed uint32
	// WorkloadSeed controls the workload's structural choices (hotspot
	// victim placement); per-TG random streams derive from Seed.
	WorkloadSeed uint32
	// NoGate selects the kernel, as in Config.
	NoGate bool
}

func (o *NetOptions) applyDefaults() {
	if o.Topo.Kind == "" {
		o.Topo.Kind = "mesh"
	}
	if o.Workload == "" {
		o.Workload = "uniform"
	}
	if o.Injection == 0 {
		o.Injection = 0.1
	}
	if o.PacketLen == 0 {
		o.PacketLen = 4
	}
}

// Key identifies the state NetConfig's platform reaches: the defaulted
// options with the kernel selection zeroed, since snapshots restore
// into any kernel and nothing else here is state-neutral. Printing the
// whole struct keeps the key complete as fields are added. A caller
// appends what it patches onto the lowered Config afterwards.
func (o NetOptions) Key() string {
	o.applyDefaults()
	o.NoGate = false
	return fmt.Sprintf("%+v", o)
}

// NetConfig builds the configuration of a platform with one traffic
// generator and one receptor per topology terminal: the topology spec
// resolves through the generator registry (terminal placement and
// routing annotation included), and the workload recipe emits each
// source's traffic model. Source i gets endpoint i; its co-located
// sink gets endpoint T+i for T terminals.
func NetConfig(o NetOptions) (Config, error) {
	o.applyDefaults()
	if o.Injection <= 0 || o.Injection > 1 {
		return Config{}, fmt.Errorf("platform: injection %g out of (0,1]", o.Injection)
	}
	topo, err := topology.FromSpec(o.Topo)
	if err != nil {
		return Config{}, err
	}
	terminals := topo.Terminals()
	nT := len(terminals)
	if nT == 0 {
		return Config{}, fmt.Errorf("platform: topology %s has no terminals", topo.Name())
	}
	if uint64(2*nT) > uint64(^flit.EndpointID(0)) {
		return Config{}, fmt.Errorf("platform: %d terminals exceed the endpoint space", nT)
	}
	sources := make([]flit.EndpointID, nT)
	sinks := make([]flit.EndpointID, nT)
	for i := range terminals {
		sources[i] = flit.EndpointID(i)
		sinks[i] = flit.EndpointID(nT + i)
	}
	for i, sw := range terminals {
		if err := topo.AddSource(sources[i], sw); err != nil {
			return Config{}, err
		}
		if err := topo.AddSink(sinks[i], sw); err != nil {
			return Config{}, err
		}
	}
	wl, ok := traffic.LookupWorkload(o.Workload)
	if !ok {
		return Config{}, fmt.Errorf("platform: unknown workload %q (known: %v)", o.Workload, traffic.WorkloadKinds())
	}
	specs, err := wl.Build(traffic.WorkloadEnv{
		Sources:   sources,
		Sinks:     sinks,
		Injection: o.Injection,
		PacketLen: o.PacketLen,
		Seed:      o.WorkloadSeed,
	})
	if err != nil {
		return Config{}, fmt.Errorf("platform: workload %q: %w", o.Workload, err)
	}
	if len(specs) != nT {
		return Config{}, fmt.Errorf("platform: workload %q emitted %d configs for %d sources", o.Workload, len(specs), nT)
	}
	cfg := Config{
		Name:     topo.Name(),
		Topology: topo,
		Seed:     o.Seed,
		NoGate:   o.NoGate,
	}
	for i := range specs {
		cfg.TGs = append(cfg.TGs, TGSpec{Endpoint: sources[i], Gen: specs[i], Limit: o.PacketsPerTG})
		cfg.TRs = append(cfg.TRs, TRSpec{Endpoint: sinks[i], Mode: receptor.Stochastic})
	}
	return cfg, nil
}
