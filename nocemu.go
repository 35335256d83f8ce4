// Package nocemu is a complete network-on-chip emulation framework in
// Go — a reproduction of "A Complete Network-On-Chip Emulation
// Framework" (Genko, Atienza, De Micheli, Mendias, Hermida, Catthoor —
// DATE 2005).
//
// The framework emulates packet-switched NoCs built from
// parameterizable wormhole switches (number of inputs, number of
// outputs, buffer size), driven by stochastic (uniform, burst/Markov,
// Poisson) or trace-driven traffic generators and observed by
// stochastic (histograms, running time) or trace-driven (latency
// analyzer, congestion counter) traffic receptors. A memory-mapped bus
// system (4 internal buses x 1024 devices) exposes every device's
// parameter and statistics registers to a control processor, so
// emulation parameters change in software with no platform rebuild —
// the paper's answer to hardware re-synthesis cost.
//
// Three interchangeable backends run the same platform:
//
//   - the emulation engine (static two-phase schedule — the FPGA
//     stand-in, fastest);
//   - a SystemC-like kernel (dynamic event calendar over the same
//     components);
//   - an RTL-like kernel (signal-level events with delta cycles).
//
// Basic use:
//
//	cfg, _ := nocemu.PaperConfig(nocemu.PaperOptions{PacketsPerTG: 1000})
//	p, _ := nocemu.Build(cfg)
//	p.Run(1_000_000)
//	nocemu.WriteReport(os.Stdout, p, nil)
//
// or drive the paper's full six-step flow with Run. The examples/
// directory holds runnable scenarios and cmd/nocbench regenerates every
// table and figure of the paper.
package nocemu

import (
	"io"

	"nocemu/internal/bus"
	"nocemu/internal/control"
	"nocemu/internal/dse"
	"nocemu/internal/fault"
	"nocemu/internal/flit"
	"nocemu/internal/flow"
	"nocemu/internal/jsonio"
	"nocemu/internal/link"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/resource"
	"nocemu/internal/routing"
	"nocemu/internal/serve"
	"nocemu/internal/topology"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

// Core platform types.
type (
	// Config describes a complete emulation platform.
	Config = platform.Config
	// Platform is a built, runnable emulation platform.
	Platform = platform.Platform
	// TGSpec configures one traffic generator.
	TGSpec = platform.TGSpec
	// TRSpec configures one traffic receptor.
	TRSpec = platform.TRSpec
	// RouteOverride pins the route for one (switch, destination) pair.
	RouteOverride = platform.RouteOverride
	// Totals is the aggregate statistics snapshot.
	Totals = platform.Totals
	// PaperOptions parameterizes the paper's reference platform.
	PaperOptions = platform.PaperOptions
	// NetOptions parameterizes a zoo platform: any registered topology
	// generator crossed with any registered workload recipe.
	NetOptions = platform.NetOptions
	// TopologySpec is a declarative topology selector (kind + params)
	// resolved through the generator registry.
	TopologySpec = topology.Spec
	// EndpointID addresses a traffic device in the network.
	EndpointID = flit.EndpointID
	// Topology is the switch graph with endpoint attachments.
	Topology = topology.Topology
	// NodeID identifies a switch.
	NodeID = topology.NodeID
	// Trace is a recorded traffic trace.
	Trace = trace.Trace
	// Program is emulation software for the control processor.
	Program = control.Program
	// Instr is one program instruction.
	Instr = control.Instr
	// RunReport is the outcome of a six-step flow run.
	RunReport = flow.RunReport
	// FlowOptions tunes a flow run.
	FlowOptions = flow.Options
	// SynthesisReport is the FPGA area estimate.
	SynthesisReport = resource.Report
	// Addr is a register address on the internal buses.
	Addr = bus.Addr
	// FaultSpec activates one link fault for a cycle window.
	FaultSpec = fault.Spec
	// Watchdog aborts runs that stop making progress (deadlock).
	Watchdog = platform.Watchdog
)

// Link fault modes for FaultSpec.Mode.
const (
	// FaultStuck holds the link: flits are delayed, never lost.
	FaultStuck = link.FaultStuck
	// FaultCorrupt flips payload bits; receivers detect the checksum
	// mismatch.
	FaultCorrupt = link.FaultCorrupt
)

// MakeAddr assembles a bus register address.
func MakeAddr(busNo, dev, reg uint32) Addr { return bus.MakeAddr(busNo, dev, reg) }

// Traffic model configuration types: a TGSpec's Gen holds a pointer to
// one of the model configs (&UniformConfig{...}, &TraceConfig{...}).
type (
	// UniformConfig parameterizes the uniform traffic model.
	UniformConfig = traffic.UniformConfig
	// BurstConfig parameterizes the 2-state Markov burst model.
	BurstConfig = traffic.BurstConfig
	// PoissonConfig parameterizes the Poisson model.
	PoissonConfig = traffic.PoissonConfig
	// FlowConfig parameterizes flow arrivals with bounded-Pareto sizes.
	FlowConfig = traffic.FlowConfig
	// IncastConfig parameterizes synchronized many-to-one waves.
	IncastConfig = traffic.IncastConfig
	// TraceConfig replays a recorded trace.
	TraceConfig = traffic.TraceConfig
	// DstConfig selects packet destinations.
	DstConfig = traffic.DstConfig
	// BurstTraceConfig shapes a synthetic burst trace.
	BurstTraceConfig = trace.BurstConfig
	// CBRTraceConfig shapes a synthetic constant-bit-rate trace.
	CBRTraceConfig = trace.CBRConfig
)

// Receptor modes for TRSpec.Mode.
const (
	Stochastic  = receptor.Stochastic
	TraceDriven = receptor.TraceDriven
)

// Destination policies for DstConfig.Policy.
const (
	DstFixed      = traffic.DstFixed
	DstUniform    = traffic.DstUniform
	DstRoundRobin = traffic.DstRoundRobin
	DstHotspot    = traffic.DstHotspot
)

// Route selection policies for Config.Select.
const (
	SelectFirst        = routing.First
	SelectPacketModulo = routing.PacketModulo
	SelectRandom       = routing.Random
	SelectAdaptive     = routing.Adaptive
)

// Paper reference traffic flavors for PaperOptions.Traffic.
const (
	PaperUniform = platform.PaperUniform
	PaperBurst   = platform.PaperBurst
	PaperPoisson = platform.PaperPoisson
	PaperTrace   = platform.PaperTrace
)

// Build compiles a platform from its configuration (the paper's
// "platform compilation" step).
func Build(cfg Config) (*Platform, error) { return platform.Build(cfg) }

// PaperConfig returns the configuration of the paper's experimental
// setup: 6 switches, 4 TGs at 45% load, 4 TRs, two 90%-loaded links.
func PaperConfig(opts PaperOptions) (Config, error) { return platform.PaperConfig(opts) }

// BuildPaper builds the reference platform directly.
func BuildPaper(opts PaperOptions) (*Platform, error) { return platform.BuildPaper(opts) }

// Run executes the paper's six-step emulation flow: platform
// compilation, synthesis estimate, initialization, software
// compilation, emulation, report.
func Run(cfg Config, prog Program, opt FlowOptions) (*RunReport, error) {
	return flow.Run(cfg, prog, opt)
}

// Synthesize estimates the platform's FPGA area (Table 1 of the paper).
func Synthesize(p *Platform) (*SynthesisReport, error) {
	return resource.Estimate(p, resource.VirtexIIPro)
}

// WriteReport renders the post-emulation report (the paper's monitor
// output). syn may be nil.
func WriteReport(w io.Writer, p *Platform, syn *SynthesisReport) error {
	return monitor.WriteReport(w, p, syn)
}

// WriteHistograms renders every receptor histogram as ASCII art.
func WriteHistograms(w io.Writer, p *Platform, width int) error {
	return monitor.WriteHistograms(w, p, width)
}

// WriteJSON emits the platform snapshot as JSON.
func WriteJSON(w io.Writer, p *Platform) error { return monitor.WriteJSON(w, p) }

// Topology constructors.
var (
	// NewTopology returns an empty topology over n switches.
	NewTopology = topology.New
	// Line, Ring, Mesh, Torus, Star build standard shapes.
	Line           = topology.Line
	Ring           = topology.Ring
	Mesh           = topology.Mesh
	Torus          = topology.Torus
	Star           = topology.Star
	Tree           = topology.Tree
	TreeLeaves     = topology.TreeLeaves
	FullyConnected = topology.FullyConnected
	// PaperSix is the paper's 6-switch experimental topology.
	PaperSix = topology.PaperSix
	// ParseTopologySpec parses a "kind:p=1,q=2" spec string (the -topo
	// CLI syntax) and TopologyFromSpec resolves a spec through the
	// generator registry; TopologyKinds lists the registered kinds.
	ParseTopologySpec = topology.ParseSpec
	TopologyFromSpec  = topology.FromSpec
	TopologyKinds     = topology.Kinds
	// WorkloadKinds lists the registered workload recipes.
	WorkloadKinds = traffic.WorkloadKinds
)

// NetConfig returns the configuration of a zoo platform: one traffic
// generator and one receptor per topology terminal, with the traffic
// models derived from the named workload recipe (see TOPOLOGIES.md).
func NetConfig(o NetOptions) (Config, error) { return platform.NetConfig(o) }

// Design-space exploration: the fork-amortized sweep engine behind
// cmd/nocsweep (see DESIGN.md §15).
type (
	// SweepConfig describes a design-space sweep: the axes, the
	// evaluation windows, the worker pool and the search mode.
	SweepConfig = dse.Config
	// SweepAxes is the swept cross product (topologies × workloads ×
	// buffer depths × injection rates × fault campaigns).
	SweepAxes = dse.Axes
	// SweepFaultCampaign is one named fault-axis entry.
	SweepFaultCampaign = dse.FaultCampaign
	// SweepResult is a completed sweep: canonical rows, the aggregated
	// points, the Pareto front, and throughput accounting.
	SweepResult = dse.Result
	// SweepRow is one (design point, fork) evaluation.
	SweepRow = dse.Row
	// SweepFrontPoint is one aggregated design point, as ranked by the
	// Pareto front.
	SweepFrontPoint = dse.FrontPoint
)

// Search modes for SweepConfig.Search.
const (
	SweepGrid   = dse.SearchGrid
	SweepPareto = dse.SearchPareto
)

// Pareto objective names for SweepConfig.Objectives.
const (
	SweepObjLatency    = dse.ObjLatency
	SweepObjThroughput = dse.ObjThroughput
	SweepObjArea       = dse.ObjArea
)

// Sweep runs a design-space exploration and returns the canonical
// result (key-sorted rows, aggregated points, Pareto front).
func Sweep(cfg SweepConfig) (*SweepResult, error) { return dse.Sweep(cfg) }

// Sweep result helpers.
var (
	// WriteSweepRows / ReadSweepRows handle the canonical JSONL row
	// format; WriteSweepFront emits the aggregated front.
	WriteSweepRows  = dse.WriteRows
	ReadSweepRows   = dse.ReadRows
	WriteSweepFront = dse.WriteFront
	// LoadSweepJournal reads a sweep journal's rows (crash inspection).
	LoadSweepJournal = dse.LoadJournal
)

// Trace helpers.
var (
	// ReadTrace and WriteTrace handle the text trace format;
	// ReadTraceBinary/WriteTraceBinary the binary one.
	ReadTrace        = trace.Read
	WriteTrace       = trace.Write
	ReadTraceBinary  = trace.ReadBinary
	WriteTraceBinary = trace.WriteBinary
	// SynthBurstTrace and SynthCBRTrace generate synthetic application
	// traces.
	SynthBurstTrace = trace.SynthBurst
	SynthCBRTrace   = trace.SynthCBR
)

// Co-simulation service (internal/serve, cmd/nocserve): long-lived
// sessions pinning a built platform, driven over the versioned JSONL
// protocol — see DESIGN.md §16.
type (
	// ServeManager multiplexes sessions over a platform pool with
	// warm-start snapshots and park/resume.
	ServeManager = serve.Manager
	// ServeOptions tunes a ServeManager.
	ServeOptions = serve.Options
	// ServeRequest and ServeResponse are the protocol frames;
	// ServePlatformSpec pins a session's platform.
	ServeRequest      = jsonio.ServeRequest
	ServeResponse     = jsonio.ServeResponse
	ServePlatformSpec = jsonio.ServePlatform
)

// Co-simulation service entry points.
var (
	// NewServeManager builds a session manager.
	NewServeManager = serve.NewManager
	// ServeStdio serves the JSONL protocol over a reader/writer pair;
	// NewServeHTTPHandler mounts it on HTTP (POST /v1/rpc).
	ServeStdio          = serve.ServeStdio
	NewServeHTTPHandler = serve.NewHTTPHandler
	// DecodeServeRequest / EncodeServeResponse are the strict frame
	// codecs clients and tests share.
	DecodeServeRequest  = jsonio.DecodeServeRequest
	EncodeServeResponse = jsonio.EncodeServeResponse
	EncodeServeRequest  = jsonio.EncodeServeRequest
)
