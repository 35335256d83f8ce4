package monitor

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/resource"
	"nocemu/internal/stats"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

func ranPlatform(t *testing.T, traf platform.PaperTraffic) *platform.Platform {
	t.Helper()
	p, err := platform.BuildPaper(platform.PaperOptions{Traffic: traf, PacketsPerTG: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("run did not complete")
	}
	return p
}

func TestWriteReport(t *testing.T) {
	p := ranPlatform(t, platform.PaperUniform)
	syn, err := resource.Estimate(p, resource.VirtexIIPro)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, p, syn); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"NoC emulation report", "traffic generators", "traffic receptors",
		"switches", "link loads", "synthesis estimate",
		"tg0", "tr100", "sw0", "uniform", "TOTAL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := WriteReport(&buf, nil, nil); err == nil {
		t.Error("nil platform accepted")
	}
	// Without synthesis section.
	buf.Reset()
	if err := WriteReport(&buf, p, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "synthesis estimate") {
		t.Error("synthesis section without report")
	}
}

func TestWriteHistograms(t *testing.T) {
	p := ranPlatform(t, platform.PaperUniform)
	var buf bytes.Buffer
	if err := WriteHistograms(&buf, p, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "packet sizes:") {
		t.Error("stochastic histograms missing")
	}
	pt := ranPlatform(t, platform.PaperTrace)
	buf.Reset()
	if err := WriteHistograms(&buf, pt, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "latency:") {
		t.Error("latency histogram missing")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := stats.Series{Name: "uniform"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := stats.Series{Name: "burst"}
	b.Add(1, 15)
	b.Add(2, 30)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "x,uniform,burst" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10,15" || lines[2] != "2,20,30" {
		t.Errorf("rows = %v", lines[1:])
	}
	if err := WriteSeriesCSV(&buf); err == nil {
		t.Error("no series accepted")
	}
	// Missing x in second series leaves an empty cell.
	c := stats.Series{Name: "sparse"}
	c.Add(1, 5)
	buf.Reset()
	if err := WriteSeriesCSV(&buf, a, c); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[2] != "2,20," {
		t.Errorf("sparse row = %q", lines[2])
	}
}

func TestWriteJSON(t *testing.T) {
	p := ranPlatform(t, platform.PaperTrace)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if s.Name == "" || len(s.TGs) != 4 || len(s.TRs) != 4 || len(s.Links) != 16 {
		t.Errorf("summary = %+v", s)
	}
	if s.Totals.PacketsReceived == 0 {
		t.Error("totals empty")
	}
	if s.TRs[0].LatMean <= 0 {
		t.Error("trace TR latency missing in JSON")
	}
	if err := WriteJSON(&buf, nil); err == nil {
		t.Error("nil platform accepted")
	}
}

// TestZooReportsNameEveryModel is the regression test for the model
// column: the monitor decodes SUBTYPE through the traffic-model table,
// so every registered workload's generators report by name (flows and
// incast used to read "model(0)"). With each source made scriptable, as
// a serve session does, the rows still name the model underneath.
func TestZooReportsNameEveryModel(t *testing.T) {
	want := map[string]string{
		"uniform": "uniform", "hotspot": "uniform", "flows": "flow", "incast": "incast", "script": "script",
	}
	for _, kind := range traffic.WorkloadKinds() {
		for _, scripted := range []bool{false, true} {
			cfg, err := platform.NetConfig(platform.NetOptions{
				Topo: topology.Spec{Kind: "mesh", Param: map[string]int{"w": 2, "h": 2}}, Workload: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfg.TGs {
				cfg.TGs[i].Scripted = scripted
			}
			p, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.RunCycles(50)
			var buf bytes.Buffer
			if err := WriteJSON(&buf, p); err != nil {
				t.Fatal(err)
			}
			var s Summary
			if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			for _, row := range s.TGs {
				if row.Model != want[kind] {
					t.Errorf("workload %s (scripted %v): %s reports model %q, want %q", kind, scripted, row.Name, row.Model, want[kind])
				}
			}
		}
	}
}

// TestReportsEveryDeviceAtScale: past the paper's 4 × 1024 devices
// every device still has a bus address, so the bus-sourced JSON has a
// row per TG, TR and topology link and totals equal to the platform's
// own — sw1023 included on the 32×32 mesh, all 7 680 links of the
// 16×16 butterfly, and the dragonfly's 1 056 TGs and TRs.
func TestReportsEveryDeviceAtScale(t *testing.T) {
	for _, topo := range []string{"mesh:w=32,h=32", "butterfly:w=16,h=16", "dragonfly:p=4,a=8,h=4"} {
		t.Run(topo, func(t *testing.T) {
			spec, err := topology.ParseSpec(topo)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: 0.05, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			p, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.RunCycles(300)
			var buf bytes.Buffer
			if err := WriteJSON(&buf, p); err != nil {
				t.Fatal(err)
			}
			var s Summary
			if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			if want := p.Totals(); s.Totals != want || want.FlitsRouted == 0 {
				t.Errorf("bus-sourced totals %+v, platform totals %+v", s.Totals, want)
			}
			links := cfg.Topology.Links()
			if len(s.TGs) != len(cfg.TGs) || len(s.TRs) != len(cfg.TRs) || len(s.Links) != len(links) {
				t.Fatalf("JSON has %d TG, %d TR and %d link rows; the platform has %d, %d and %d",
					len(s.TGs), len(s.TRs), len(s.Links), len(cfg.TGs), len(cfg.TRs), len(links))
			}
			loads := p.LinkLoads()
			for i, l := range s.Links {
				if l.Index != i || l.From != int(links[i].From) || l.To != int(links[i].To) || l.Load != loads[i] {
					t.Fatalf("link row %d = %+v, want topology link %+v at load %v", i, l, links[i], loads[i])
				}
			}
			buf.Reset()
			if err := WriteReport(&buf, p, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriteReportPerFlowSection(t *testing.T) {
	p := ranPlatform(t, platform.PaperTrace)
	var buf bytes.Buffer
	if err := WriteReport(&buf, p, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "per-flow latency") {
		t.Error("per-flow section missing with trace receptors")
	}
	if !strings.Contains(out, "tg0 -> tr100") {
		t.Error("flow row missing")
	}
	// Uniform platform (stochastic TRs): no per-flow section.
	pu := ranPlatform(t, platform.PaperUniform)
	buf.Reset()
	if err := WriteReport(&buf, pu, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "per-flow latency") {
		t.Error("per-flow section present without trace receptors")
	}
}

func TestWriteSynthesisStandalone(t *testing.T) {
	p := ranPlatform(t, platform.PaperUniform)
	syn, err := resource.Estimate(p, resource.VirtexIIPro)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynthesis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TOTAL") {
		t.Error("synthesis table missing total")
	}
}
