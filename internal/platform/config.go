// Package platform assembles complete emulation platforms: the paper's
// "platform compilation" step. A Config describes the topology, the
// switch parameters (inputs, outputs, buffer size), the routing scheme,
// and one traffic device per endpoint; Build wires switches, links,
// network interfaces, statistic devices, the internal buses and the
// control module into a runnable engine.
package platform

import (
	"fmt"

	"nocemu/internal/arb"
	"nocemu/internal/flit"
	"nocemu/internal/probe"
	"nocemu/internal/receptor"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// TGSpec configures the traffic generator for one source endpoint.
type TGSpec struct {
	// Endpoint must name a source in the topology.
	Endpoint flit.EndpointID
	// Gen is the generator's traffic model and that model's
	// configuration (&traffic.UniformConfig{...}, &traffic.TraceConfig{...},
	// ...). Nil is the pure externally scripted source: no model of its
	// own, traffic arrives through Platform.InjectScript between runs
	// (the co-simulation path, DESIGN.md §16).
	Gen traffic.Config
	// Seed seeds this TG's random registers (0 uses a derived seed).
	Seed uint32
	// Limit bounds the packets generated (0 = unlimited/trace length).
	Limit uint64
	// QueueFlits is the source-queue capacity (default 32).
	QueueFlits int
	// Scripted wraps the built model in a traffic.ScriptGen so
	// externally scripted demands (Platform.InjectScript) overlay the
	// model's own traffic. A nil Gen is scripted regardless.
	Scripted bool
}

// TRSpec configures the traffic receptor for one sink endpoint.
type TRSpec struct {
	// Endpoint must name a sink in the topology.
	Endpoint flit.EndpointID
	// Mode selects stochastic or trace-driven analysis.
	Mode receptor.Mode
	// ExpectPackets lets the run stop once this receptor has seen that
	// many packets (0 = not a stop condition).
	ExpectPackets uint64
	// BufDepth is the ejector buffer depth (default: switch buffer
	// depth).
	BufDepth int
	// RecordTrace makes this receptor record arrivals for later replay.
	RecordTrace bool
	// TrackLast keeps each source's most recent network latency for the
	// FLOW_LAST register (trace-driven mode; the co-simulation answer
	// path).
	TrackLast bool
	// Histogram shaping (zero values use receptor defaults).
	SizeBinWidth uint64
	SizeBins     int
	GapBinWidth  uint64
	GapBins      int
	LatBinWidth  uint64
	LatBins      int
}

// RouteOverride pins the candidate output ports for one (switch,
// destination) pair, replacing the generated entry.
type RouteOverride struct {
	Switch topology.NodeID
	Dst    flit.EndpointID
	Ports  []int
}

// RoutingScheme selects how the routing table is generated. The empty
// scheme means automatic: the topology's own Router annotation when its
// generator attached one, all-minimal-paths shortest routing otherwise.
type RoutingScheme string

// Routing scheme names.
const (
	RoutingShortest RoutingScheme = "shortest"
	RoutingXY       RoutingScheme = "xy"
	RoutingUpDown   RoutingScheme = "updown"
)

// Config describes a complete emulation platform.
type Config struct {
	// Name labels the platform in reports.
	Name string
	// Topology is the switch graph with endpoint attachments.
	Topology *topology.Topology
	// SwitchBufDepth is the per-input FIFO depth (default 4) — the
	// "size of buffers" switch parameter.
	SwitchBufDepth int
	// Arb is the output arbitration policy (default round-robin).
	Arb arb.Policy
	// Select is the route-candidate selection policy (default first).
	Select routing.Policy
	// Routing picks the table generator. The default (empty) follows
	// the topology: its generator's Router annotation, or shortest-path
	// routing when there is none.
	Routing RoutingScheme
	// Overrides pin specific routes after table generation.
	Overrides []RouteOverride
	// AllowDeadlock skips the channel-dependency-graph deadlock check.
	// Build rejects route tables whose dependency graph is cyclic
	// (wormhole deadlock possible); deliberate deadlock studies — e.g.
	// the watchdog tests — opt out here.
	AllowDeadlock bool
	// TGs and TRs configure the traffic devices, one per endpoint.
	TGs []TGSpec
	TRs []TRSpec
	// Seed is the platform base seed; device seeds derive from it.
	Seed uint32
	// Workers selects how the engine walks a cycle: 0 walks the
	// schedule on the caller's goroutine; N >= 1 evaluates each cycle
	// on N workers (engine.SetWorkers) — the software analogue of the
	// FPGA evaluating every device in parallel. Results are
	// bit-identical for every value. A platform with Workers > 0
	// holds N-1 goroutines from its first run on; call Platform.Close
	// when done with it.
	Workers int
	// NoGate disables quiescence-aware scheduling (the software
	// analogue of clock gating, on by default): with gating the kernel
	// parks provably idle devices and fast-forwards through globally
	// idle spans, producing bit-identical results to the naive
	// every-device-every-cycle schedule at a fraction of the cost at
	// low load, and stands its gates down for the naive schedule on a
	// network too busy for parking to pay. NoGate is the ablation and
	// test hook, not a tuning knob: the gating test matrices hold it to
	// the same results, and the benchmark's engine.gate_ratio times the
	// two against each other.
	NoGate bool
	// Trace enables the event-tracing and time-series metrics subsystem
	// (internal/probe): every data-path component gets a probe feeding a
	// per-component ring buffer, a collector drains them into a canonical
	// event stream, and a trace-metrics register bank is attached on the
	// auxiliary bus. Nil (the default) disables tracing completely — the
	// hooks stay compiled in but cost nothing. The emitted stream is
	// bit-identical across kernels (Workers, NoGate).
	Trace *probe.Config
}

func (c *Config) applyDefaults() {
	if c.SwitchBufDepth == 0 {
		c.SwitchBufDepth = 4
	}
	if c.Arb == "" {
		c.Arb = arb.RoundRobin
	}
	if c.Select == "" {
		c.Select = routing.First
	}
	if c.Seed == 0 {
		c.Seed = 0x0C0FFEE
	}
	// The specs are defaulted on a copy: the caller's slice may back
	// several configs being built at once (sweep forks).
	c.TGs = append([]TGSpec(nil), c.TGs...)
	for i := range c.TGs {
		if c.TGs[i].QueueFlits == 0 {
			c.TGs[i].QueueFlits = 32
		}
	}
}

// Normalize applies defaults and validates a configuration without
// building a platform, returning the defaulted copy. Alternative
// backends (internal/rtl, internal/tlm) use it to interpret a Config
// exactly as Build would.
func Normalize(cfg Config) (Config, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// validate checks config coherence before building.
func (c *Config) validate() error {
	if c.Name == "" {
		return fmt.Errorf("platform: empty name")
	}
	if c.Topology == nil {
		return fmt.Errorf("platform %s: nil topology", c.Name)
	}
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", c.Name, err)
	}
	if c.SwitchBufDepth < 1 {
		return fmt.Errorf("platform %s: buffer depth %d", c.Name, c.SwitchBufDepth)
	}
	if c.Workers < 0 {
		return fmt.Errorf("platform %s: negative worker count %d", c.Name, c.Workers)
	}
	if !routing.ValidPolicy(c.Select) {
		return fmt.Errorf("platform %s: selection policy %q", c.Name, c.Select)
	}
	srcs := c.Topology.Sources()
	if len(c.TGs) != len(srcs) {
		return fmt.Errorf("platform %s: %d TG specs for %d sources", c.Name, len(c.TGs), len(srcs))
	}
	seen := map[flit.EndpointID]bool{}
	for i, spec := range c.TGs {
		ep, ok := c.Topology.Endpoint(spec.Endpoint)
		if !ok || ep.Role != topology.Source {
			return fmt.Errorf("platform %s: TG %d endpoint %d is not a source", c.Name, i, spec.Endpoint)
		}
		if seen[spec.Endpoint] {
			return fmt.Errorf("platform %s: duplicate TG for endpoint %d", c.Name, spec.Endpoint)
		}
		seen[spec.Endpoint] = true
	}
	sinks := c.Topology.Sinks()
	if len(c.TRs) != len(sinks) {
		return fmt.Errorf("platform %s: %d TR specs for %d sinks", c.Name, len(c.TRs), len(sinks))
	}
	seen = map[flit.EndpointID]bool{}
	for i, spec := range c.TRs {
		ep, ok := c.Topology.Endpoint(spec.Endpoint)
		if !ok || ep.Role != topology.Sink {
			return fmt.Errorf("platform %s: TR %d endpoint %d is not a sink", c.Name, i, spec.Endpoint)
		}
		if seen[spec.Endpoint] {
			return fmt.Errorf("platform %s: duplicate TR for endpoint %d", c.Name, spec.Endpoint)
		}
		seen[spec.Endpoint] = true
	}
	return nil
}
