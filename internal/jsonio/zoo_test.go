// Tests for the JSON surface of the topology registry and workload zoo
// (DESIGN.md §14): params maps, workload objects, the data-centre
// traffic models, hotspot destinations and the allow_deadlock escape
// hatch.
package jsonio

import (
	"strings"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/traffic"
)

func loadString(t *testing.T, src string) (platform.Config, error) {
	t.Helper()
	cfg, _, err := load(strings.NewReader(src), ".")
	return cfg, err
}

// TestTopologyParamsMap: registry kinds size themselves from the params
// map, and explicit params win over the legacy shorthand fields.
func TestTopologyParamsMap(t *testing.T) {
	topo, err := buildTopology(TopologySpec{Kind: "fattree", Params: map[string]int{"k": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSwitches() != 20 {
		t.Errorf("fattree k=4: %d switches, want 20", topo.NumSwitches())
	}
	// Explicit params beat the legacy w/h shorthand.
	topo, err = buildTopology(TopologySpec{Kind: "mesh", W: 8, H: 8, Params: map[string]int{"w": 2, "h": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSwitches() != 4 {
		t.Errorf("params override lost: %d switches, want 4", topo.NumSwitches())
	}
	// Unknown generator parameters are rejected, not ignored.
	if _, err := buildTopology(TopologySpec{Kind: "mesh", Params: map[string]int{"q": 3}}); err == nil {
		t.Error("unknown param accepted")
	}
}

// TestWorkloadObject: the workload recipe path — topology kind plus a
// workload object, no explicit tgs/trs — yields a platform with one
// TG/TR per terminal that builds and moves traffic.
func TestWorkloadObject(t *testing.T) {
	cfg, err := loadString(t, `{
		"topology": {"kind": "fattree", "params": {"k": 4}},
		"workload": {"kind": "hotspot", "injection": 0.2, "packets_per_tg": 5},
		"seed": 11
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.TGs) != 16 || len(cfg.TRs) != 16 {
		t.Fatalf("fattree k=4 workload: %d TGs, %d TRs, want 16 each", len(cfg.TGs), len(cfg.TRs))
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(2_000)
	if !drained(p) {
		t.Error("bounded workload did not drain in 2000 cycles")
	}
	if p.Totals().PacketsReceived == 0 {
		t.Error("no packets delivered")
	}
}

// TestWorkloadObjectAt1kNodes: the acceptance-scale check — a
// 1024-terminal butterfly selected entirely through JSON (params map +
// workload object) builds through the registry.
func TestWorkloadObjectAt1kNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node build in -short mode")
	}
	cfg, err := loadString(t, `{
		"topology": {"kind": "butterfly", "params": {"w": 32, "h": 32}},
		"workload": {"kind": "flows", "injection": 0.1}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.TGs) != 1024 {
		t.Fatalf("butterfly 32x32: %d TGs, want 1024", len(cfg.TGs))
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(200)
	if p.Totals().FlitsReceived == 0 {
		t.Error("no flits delivered after 200 cycles")
	}
}

// TestWorkloadObjectErrors: the misuse cases each carry a dedicated
// error — mixing with explicit tgs/trs, custom topologies, manual
// endpoint placement and unknown workload kinds.
func TestWorkloadObjectErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"explicit tgs",
			`{"topology": {"kind": "mesh"},
			  "workload": {"kind": "uniform"},
			  "tgs": [{"endpoint": 0, "model": "uniform", "dst_policy": "fixed", "dsts": [1]}]}`,
			"mutually exclusive",
		},
		{
			"custom topology",
			`{"topology": {"kind": "custom", "num_switches": 2, "links": [[0,1],[1,0]]},
			  "workload": {"kind": "uniform"}}`,
			"registry topology kind",
		},
		{
			"manual endpoints",
			`{"topology": {"kind": "mesh", "sources": [{"id": 0, "switch": 0}]},
			  "workload": {"kind": "uniform"}}`,
			"drop topology sources/sinks",
		},
		{
			"unknown workload",
			`{"topology": {"kind": "mesh"}, "workload": {"kind": "tsunami"}}`,
			"tsunami",
		},
	}
	for _, c := range cases {
		_, err := loadString(t, c.src)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestFlowIncastHotspotJSON: the data-centre TG models and the hotspot
// destination policy round-trip from raw JSON into a buildable config.
func TestFlowIncastHotspotJSON(t *testing.T) {
	cfg, err := loadString(t, `{
		"name": "dc-models",
		"topology": {"kind": "ring", "n": 3,
			"sources": [{"id": 0, "switch": 0}, {"id": 1, "switch": 1}, {"id": 2, "switch": 2}],
			"sinks": [{"id": 10, "switch": 0}, {"id": 11, "switch": 1}, {"id": 12, "switch": 2}]},
		"tgs": [
			{"endpoint": 0, "model": "flow", "dst_policy": "uniform", "dsts": [11, 12],
			 "flow": {"arrival_q16": 2000, "size_min": 1, "size_max": 16, "len_min": 4, "len_max": 4},
			 "limit": 20},
			{"endpoint": 1, "model": "incast", "dst_policy": "round-robin", "dsts": [10, 12],
			 "incast": {"epoch": 50, "packets_per_wave": 4, "len_min": 4, "len_max": 4, "offset": 3},
			 "limit": 20},
			{"endpoint": 2, "model": "uniform",
			 "dst_policy": "hotspot", "dsts": [10, 11], "hot": [10], "hot_q16": 32768,
			 "uniform": {"len_min": 4, "len_max": 4, "gap_min": 2, "gap_max": 6},
			 "limit": 20}
		],
		"trs": [
			{"endpoint": 10, "mode": "stochastic"},
			{"endpoint": 11, "mode": "stochastic"},
			{"endpoint": 12, "mode": "stochastic"}
		]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.TGs[2].Gen.(*traffic.UniformConfig).Dst; len(got.Hot) != 1 || got.Hot[0] != 10 || got.HotQ16 != 32768 {
		t.Errorf("hotspot dst config lost: hot=%v q16=%d", got.Hot, got.HotQ16)
	}
	if cfg.TGs[1].Gen.(*traffic.IncastConfig).Offset != 3 {
		t.Errorf("incast offset lost: %d", cfg.TGs[1].Gen.(*traffic.IncastConfig).Offset)
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(5_000)
	if !drained(p) {
		t.Error("bounded run did not drain")
	}
	if p.Totals().PacketsReceived == 0 {
		t.Error("no packets delivered")
	}

	// The model-without-config guards cover the new models too.
	for _, model := range []string{"flow", "incast"} {
		_, err := loadString(t, `{
			"topology": {"kind": "ring", "n": 3,
				"sources": [{"id": 0, "switch": 0}], "sinks": [{"id": 10, "switch": 1}]},
			"tgs": [{"endpoint": 0, "model": "`+model+`", "dst_policy": "fixed", "dsts": [10]}],
			"trs": [{"endpoint": 10, "mode": "stochastic"}]
		}`)
		if err == nil {
			t.Errorf("%s model without config accepted", model)
		}
	}
}

// TestWorkloadSkipsSynthesis: workload-generated platforms don't
// target the paper's FPGA, so the run spec tells the flow to skip the
// area estimate (which would reject any large instance); explicit
// tgs/trs configs keep it.
func TestWorkloadSkipsSynthesis(t *testing.T) {
	f := &File{
		Topology: TopologySpec{Kind: "mesh"},
		Workload: &WorkloadSpec{Kind: "uniform"},
	}
	if run := f.runSpec("."); !run.SkipSynthesis {
		t.Error("workload config does not skip synthesis")
	}
	if run := Example().runSpec("."); run.SkipSynthesis {
		t.Error("explicit config skips synthesis")
	}
}

// TestAllowDeadlockJSON: the documented deadlock-prone combination —
// minimal torus routing without dateline VCs — loads from JSON but is
// rejected by the CDG check at build time; "allow_deadlock": true opts
// the config out of the check.
func TestAllowDeadlockJSON(t *testing.T) {
	src := func(allow string) string {
		return `{
			"topology": {"kind": "torus", "params": {"w": 4, "h": 4, "minimal": 1}},
			"workload": {"kind": "uniform", "injection": 0.2, "packets_per_tg": 4}` + allow + `
		}`
	}
	cfg, err := loadString(t, src(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.Build(cfg); err == nil {
		t.Fatal("deadlock-prone minimal torus built without allow_deadlock")
	} else if !strings.Contains(err.Error(), "channel-dependency cycle") {
		t.Errorf("unexpected rejection: %v", err)
	}
	cfg, err = loadString(t, src(`, "allow_deadlock": true`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.AllowDeadlock {
		t.Error("allow_deadlock not threaded into the config")
	}
	if _, err := platform.Build(cfg); err != nil {
		t.Errorf("allow_deadlock build: %v", err)
	}
}

// drained reports whether no traffic remains in flight: every source
// queue is empty and every packet sent has been received.
func drained(p *platform.Platform) bool {
	for _, tg := range p.TGs() {
		if !tg.Injector().Drained() {
			return false
		}
	}
	tot := p.Totals()
	return tot.PacketsSent == tot.PacketsReceived
}
