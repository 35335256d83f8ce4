// Package jsonio loads emulation-platform configurations from JSON
// files — the textual "platform settings + software settings" a user
// hands to the flow (cmd/nocemu consumes them).
package jsonio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nocemu/internal/arb"
	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/receptor"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

// EndpointAt attaches an endpoint to a switch.
type EndpointAt struct {
	ID     uint16 `json:"id"`
	Switch int    `json:"switch"`
}

// TopologySpec describes the switch graph. Kind is either "custom"
// (explicit num_switches + links) or any generator registered in the
// topology registry (line, ring, mesh, torus, star, tree, full,
// paper-six, butterfly, fattree, dragonfly, ...); registry kinds take
// their sizes from Params, with the legacy shorthand fields (n, w, h,
// leaves, depth, fanout) folded in for older configs.
type TopologySpec struct {
	Kind string `json:"kind"`
	// Params carries generator parameters by name ("w", "h", "k", ...);
	// omitted parameters use the generator's documented defaults.
	Params map[string]int `json:"params,omitempty"`
	// N sizes line/ring/full; Leaves sizes star; W/H size mesh/torus;
	// Depth/Fanout size tree (legacy shorthand for Params entries).
	N      int `json:"n,omitempty"`
	W      int `json:"w,omitempty"`
	H      int `json:"h,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	Depth  int `json:"depth,omitempty"`
	Fanout int `json:"fanout,omitempty"`
	// NumSwitches and Links define a custom graph (unidirectional
	// [from, to] pairs).
	NumSwitches int      `json:"num_switches,omitempty"`
	Links       [][2]int `json:"links,omitempty"`
	// Sources and Sinks attach endpoints (ignored for paper-six, which
	// carries its own).
	Sources []EndpointAt `json:"sources,omitempty"`
	Sinks   []EndpointAt `json:"sinks,omitempty"`
}

// Spec lowers the JSON shape into a declarative topology.Spec, folding
// the legacy shorthand fields into the parameter map (explicit Params
// entries win). Only meaningful for registry kinds, not "custom".
func (spec TopologySpec) Spec() topology.Spec {
	s := topology.Spec{Kind: spec.Kind}
	if len(spec.Params) > 0 {
		s.Param = make(map[string]int, len(spec.Params))
		for k, v := range spec.Params {
			s.Param[k] = v
		}
	}
	fold := func(name string, val int) {
		if val == 0 {
			return
		}
		if _, explicit := spec.Params[name]; explicit {
			return
		}
		s = s.With(name, val)
	}
	// Legacy fields only ever sized these kinds; folding them per kind
	// keeps old configs with stray irrelevant fields loading as before.
	switch spec.Kind {
	case "line", "ring", "full":
		fold("n", spec.N)
	case "mesh", "torus", "butterfly":
		fold("w", spec.W)
		fold("h", spec.H)
	case "star":
		fold("leaves", spec.Leaves)
	case "tree":
		fold("depth", spec.Depth)
		fold("fanout", spec.Fanout)
	}
	return s
}

// TGSpec configures one traffic generator. In the file it is one flat
// object; the model's parameter object sits under a key named after the
// model, between the destination keys and trace_file:
//
//	{"endpoint": 0, "model": "uniform", "dst_policy": "fixed", "dsts": [100],
//	 "uniform": {"len_min": 4, ...}, "limit": 1000}
type TGSpec struct {
	Endpoint uint16 `json:"endpoint"`
	// Model names a row of the traffic-model table (internal/traffic),
	// which owns the schema of the model's parameter object.
	Model string `json:"model"`
	// DstConfig carries dst_policy (fixed, uniform, round-robin,
	// hotspot), dsts, and the hotspot policy's hot and hot_q16.
	traffic.DstConfig
	// Params is the model's parameter object, verbatim.
	Params json.RawMessage `json:"-"`
	// TraceFile is a path (relative to the config file) to a text or
	// binary trace for the trace model.
	TraceFile string `json:"trace_file,omitempty"`

	Seed       uint32 `json:"seed,omitempty"`
	Limit      uint64 `json:"limit,omitempty"`
	QueueFlits int    `json:"queue_flits,omitempty"`
}

// tgFixedKeys is TGSpec without its methods: the keys encoding/json can
// handle by itself.
type tgFixedKeys TGSpec

// UnmarshalJSON lifts the parameter object out from under the model's
// name and decodes the remaining keys strictly.
func (t *TGSpec) UnmarshalJSON(b []byte) error {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		return err
	}
	var model string
	_ = json.Unmarshal(keys["model"], &model) // a malformed name fails the strict pass below
	params := keys[model]
	delete(keys, model)
	fixed, err := json.Marshal(keys)
	if err != nil {
		return err
	}
	if err := decodeStrict(bytes.NewReader(fixed), (*tgFixedKeys)(t)); err != nil {
		return err
	}
	t.Params = params
	return nil
}

// MarshalJSON writes the flat object back, key order included. The keys
// behind the parameter object are all omitempty, so the fixed keys
// marshaled without them are a prefix of the fixed keys marshaled whole
// (up to the closing brace), and the object goes in at the end of it.
func (t TGSpec) MarshalJSON() ([]byte, error) {
	all, err := json.Marshal(tgFixedKeys(t))
	if err != nil || len(t.Params) == 0 {
		return all, err
	}
	head := tgFixedKeys(t)
	head.TraceFile, head.Seed, head.Limit, head.QueueFlits = "", 0, 0, 0
	front, err := json.Marshal(head)
	if err != nil {
		return nil, err
	}
	n := len(front) - 1
	out := append([]byte(nil), all[:n]...)
	out = append(out, fmt.Sprintf(",%q:%s", t.Model, t.Params)...)
	return append(out, all[n:]...), nil
}

// TRSpec configures one traffic receptor.
type TRSpec struct {
	Endpoint uint16 `json:"endpoint"`
	// Mode: stochastic or trace.
	Mode          string `json:"mode"`
	ExpectPackets uint64 `json:"expect_packets,omitempty"`
	// RecordTrace records arrivals for later replay.
	RecordTrace  bool   `json:"record_trace,omitempty"`
	BufDepth     int    `json:"buf_depth,omitempty"`
	SizeBins     int    `json:"size_bins,omitempty"`
	SizeBinWidth uint64 `json:"size_bin_width,omitempty"`
	GapBins      int    `json:"gap_bins,omitempty"`
	GapBinWidth  uint64 `json:"gap_bin_width,omitempty"`
	LatBins      int    `json:"lat_bins,omitempty"`
	LatBinWidth  uint64 `json:"lat_bin_width,omitempty"`
}

// OverrideSpec pins a route.
type OverrideSpec struct {
	Switch int    `json:"switch"`
	Dst    uint16 `json:"dst"`
	Ports  []int  `json:"ports"`
}

// File is the top-level JSON configuration.
type File struct {
	Name           string       `json:"name"`
	Topology       TopologySpec `json:"topology"`
	SwitchBufDepth int          `json:"switch_buf_depth,omitempty"`
	Arb            string       `json:"arb,omitempty"`
	Select         string       `json:"select,omitempty"`
	Routing        string       `json:"routing,omitempty"`
	// AllowDeadlock skips the channel-dependency-graph deadlock check
	// (for deliberately cyclic routing experiments).
	AllowDeadlock bool           `json:"allow_deadlock,omitempty"`
	Overrides     []OverrideSpec `json:"overrides,omitempty"`
	// Workload generates one TG and one TR per topology terminal from a
	// registered workload recipe instead of listing them explicitly;
	// mutually exclusive with tgs/trs.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	TGs      []TGSpec      `json:"tgs,omitempty"`
	TRs      []TRSpec      `json:"trs,omitempty"`
	Seed     uint32        `json:"seed,omitempty"`
	// NoGate disables quiescence-aware scheduling (results are
	// bit-identical either way; gating only speeds up idle cycles).
	NoGate bool `json:"no_gate,omitempty"`
	// Trace enables the event-tracing subsystem; the nested fields are
	// probe.Config ("window", "ring_cap", "sched"). Omit to run with
	// tracing off.
	Trace *probe.Config `json:"trace,omitempty"`
	// CheckpointEvery > 0 snapshots the platform every K cycles during
	// the run (DESIGN.md §13). Run control, not platform state: it is
	// surfaced through RunSpec, not the platform config.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// Restore warm-starts the run from a .nocsnap snapshot file (path
	// relative to the config file, like trace_file).
	Restore string `json:"restore,omitempty"`
}

// WorkloadSpec selects a registered workload recipe ("uniform",
// "hotspot", "incast", "flows") and its knobs; the platform layer
// derives one generator/receptor pair per topology terminal from it.
type WorkloadSpec struct {
	Kind string `json:"kind"`
	// Injection is the offered load per terminal in flits/cycle
	// (default 0.1).
	Injection float64 `json:"injection,omitempty"`
	// PacketLen is the packet size in flits (default 4).
	PacketLen uint16 `json:"packet_len,omitempty"`
	// PacketsPerTG bounds each generator (0 = unlimited).
	PacketsPerTG uint64 `json:"packets_per_tg,omitempty"`
	// Seed controls the workload's structural choices (e.g. the hotspot
	// victim); per-TG streams derive from the platform seed.
	Seed uint32 `json:"seed,omitempty"`
}

// RunSpec carries the run-control keys that travel with a platform
// configuration but do not describe the platform itself; cmd/nocemu
// maps them onto flow.Options (flags override them).
type RunSpec struct {
	// CheckpointEvery is the checkpoint interval in cycles (0 = off).
	CheckpointEvery uint64
	// Restore is the snapshot path to warm-start from, already resolved
	// against the config file's directory ("" = cold start).
	Restore string
	// SkipSynthesis marks platforms that don't target the paper's FPGA
	// (workload-generated zoo platforms): the flow skips the area
	// estimate, which would reject any large instance.
	SkipSynthesis bool
}

// runSpec extracts the run-control keys, anchoring the restore path.
func (f *File) runSpec(baseDir string) RunSpec {
	spec := RunSpec{
		CheckpointEvery: f.CheckpointEvery,
		Restore:         f.Restore,
		SkipSynthesis:   f.Workload != nil,
	}
	if spec.Restore != "" && !filepath.IsAbs(spec.Restore) {
		spec.Restore = filepath.Join(baseDir, spec.Restore)
	}
	return spec
}

// buildTopology materializes the topology spec: "custom" wires the
// explicit link list, everything else resolves through the generator
// registry.
func buildTopology(spec TopologySpec) (*topology.Topology, error) {
	var topo *topology.Topology
	var err error
	switch spec.Kind {
	case "paper-six":
		return topology.PaperSix()
	case "custom":
		topo, err = topology.New("custom", spec.NumSwitches)
		if err != nil {
			return nil, err
		}
		for _, l := range spec.Links {
			if err := topo.AddLink(topology.NodeID(l[0]), topology.NodeID(l[1])); err != nil {
				return nil, err
			}
		}
	default:
		topo, err = topology.FromSpec(spec.Spec())
	}
	if err != nil {
		return nil, err
	}
	for _, s := range spec.Sources {
		if err := topo.AddSource(flit.EndpointID(s.ID), topology.NodeID(s.Switch)); err != nil {
			return nil, err
		}
	}
	for _, s := range spec.Sinks {
		if err := topo.AddSink(flit.EndpointID(s.ID), topology.NodeID(s.Switch)); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// loadTrace reads a trace file, auto-detecting binary by magic.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("jsonio: trace %s: %v", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(magic[:]) == "NTRC" {
		return trace.ReadBinary(f)
	}
	return trace.Read(f)
}

// ToConfig converts the JSON file into a platform configuration.
// baseDir anchors relative trace paths.
func (f *File) ToConfig(baseDir string) (platform.Config, error) {
	cfg, err := f.endpoints(baseDir)
	if err != nil {
		return platform.Config{}, err
	}
	if f.Name != "" { // a workload platform is otherwise named after its topology
		cfg.Name = f.Name
	}
	cfg.SwitchBufDepth = f.SwitchBufDepth
	cfg.Arb = arb.Policy(f.Arb)
	cfg.Select = routing.Policy(f.Select)
	cfg.Routing = platform.RoutingScheme(f.Routing)
	cfg.AllowDeadlock = f.AllowDeadlock
	cfg.Seed = f.Seed
	cfg.NoGate = f.NoGate
	cfg.Trace = f.Trace
	for _, ov := range f.Overrides {
		cfg.Overrides = append(cfg.Overrides, platform.RouteOverride{
			Switch: topology.NodeID(ov.Switch), Dst: flit.EndpointID(ov.Dst), Ports: ov.Ports,
		})
	}
	return cfg, nil
}

// endpoints builds the part of the configuration the two file shapes
// spell differently — the topology with its endpoints, the TGs and the
// TRs: derived from the workload recipe, or listed explicitly.
func (f *File) endpoints(baseDir string) (platform.Config, error) {
	if f.Workload != nil {
		return f.workloadConfig()
	}
	topo, err := buildTopology(f.Topology)
	if err != nil {
		return platform.Config{}, err
	}
	cfg := platform.Config{Topology: topo}
	for _, tg := range f.TGs {
		in := traffic.ModelInput{Params: tg.Params, Dst: tg.DstConfig}
		if path := tg.TraceFile; path != "" {
			if !filepath.IsAbs(path) {
				path = filepath.Join(baseDir, path)
			}
			in.LoadTrace = func() (*trace.Trace, error) { return loadTrace(path) }
		}
		gen, err := traffic.DecodeModel(tg.Model, in)
		if err != nil {
			return platform.Config{}, fmt.Errorf("jsonio: TG %d: %w", tg.Endpoint, err)
		}
		cfg.TGs = append(cfg.TGs, platform.TGSpec{
			Endpoint:   flit.EndpointID(tg.Endpoint),
			Gen:        gen,
			Seed:       tg.Seed,
			Limit:      tg.Limit,
			QueueFlits: tg.QueueFlits,
		})
	}
	for _, tr := range f.TRs {
		var mode receptor.Mode
		switch tr.Mode {
		case "stochastic":
			mode = receptor.Stochastic
		case "trace":
			mode = receptor.TraceDriven
		default:
			return platform.Config{}, fmt.Errorf("jsonio: TR %d: unknown mode %q", tr.Endpoint, tr.Mode)
		}
		cfg.TRs = append(cfg.TRs, platform.TRSpec{
			Endpoint:      flit.EndpointID(tr.Endpoint),
			Mode:          mode,
			ExpectPackets: tr.ExpectPackets,
			RecordTrace:   tr.RecordTrace,
			BufDepth:      tr.BufDepth,
			SizeBins:      tr.SizeBins, SizeBinWidth: tr.SizeBinWidth,
			GapBins: tr.GapBins, GapBinWidth: tr.GapBinWidth,
			LatBins: tr.LatBins, LatBinWidth: tr.LatBinWidth,
		})
	}
	return cfg, nil
}

// workloadConfig builds the endpoints of a file using the workload
// recipe path: the topology spec resolves through the generator
// registry and the workload derives one TG/TR per terminal.
func (f *File) workloadConfig() (platform.Config, error) {
	if len(f.TGs) > 0 || len(f.TRs) > 0 {
		return platform.Config{}, fmt.Errorf("jsonio: workload and explicit tgs/trs are mutually exclusive")
	}
	if f.Topology.Kind == "custom" {
		return platform.Config{}, fmt.Errorf("jsonio: workload requires a registry topology kind, not %q", f.Topology.Kind)
	}
	if len(f.Topology.Sources) > 0 || len(f.Topology.Sinks) > 0 {
		return platform.Config{}, fmt.Errorf("jsonio: workload places its own endpoints; drop topology sources/sinks")
	}
	return platform.NetConfig(platform.NetOptions{
		Topo:         f.Topology.Spec(),
		Workload:     f.Workload.Kind,
		Injection:    f.Workload.Injection,
		PacketLen:    f.Workload.PacketLen,
		PacketsPerTG: f.Workload.PacketsPerTG,
		WorkloadSeed: f.Workload.Seed,
	})
}

// decodeStrict decodes one JSON value, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// load parses a JSON configuration from r into its platform
// configuration and run-control keys; baseDir anchors relative paths.
func load(r io.Reader, baseDir string) (platform.Config, RunSpec, error) {
	var f File
	if err := decodeStrict(r, &f); err != nil {
		return platform.Config{}, RunSpec{}, fmt.Errorf("jsonio: %v", err)
	}
	cfg, err := f.ToConfig(baseDir)
	if err != nil {
		return platform.Config{}, RunSpec{}, err
	}
	return cfg, f.runSpec(baseDir), nil
}

// LoadFileRun parses a JSON configuration file, returning both the
// platform configuration and the run-control keys (checkpoint_every,
// restore).
func LoadFileRun(path string) (platform.Config, RunSpec, error) {
	r, err := os.Open(path)
	if err != nil {
		return platform.Config{}, RunSpec{}, err
	}
	defer r.Close()
	return load(r, filepath.Dir(path))
}

// Example returns a commented-free sample configuration (the quickstart
// JSON cmd/nocgen emits).
func Example() *File {
	return &File{
		Name:     "example-ring",
		Topology: TopologySpec{Kind: "ring", N: 4, Sources: []EndpointAt{{ID: 0, Switch: 0}}, Sinks: []EndpointAt{{ID: 100, Switch: 2}}},
		TGs: []TGSpec{{
			Endpoint: 0, Model: "uniform",
			DstConfig: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{100}},
			Params:    json.RawMessage(`{"len_min":4,"len_max":4,"gap_min":6,"gap_max":6,"random_phase":true}`),
			Limit:     1000,
		}},
		TRs: []TRSpec{{Endpoint: 100, Mode: "stochastic", ExpectPackets: 1000}},
	}
}
