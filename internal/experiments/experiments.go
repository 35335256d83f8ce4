// Package experiments regenerates every table and figure of the
// paper's evaluation (DESIGN.md carries the index):
//
//	Table 1  (slide 17) — FPGA slices per device and platform total;
//	Table 2  (slide 18) — emulation vs SystemC-like vs RTL-like speed;
//	Figure 1 (slide 19) — the experimental setup's two 90% links;
//	Figure 2 (slide 20) — run-time vs packets sent, uniform vs burst;
//	Figure 3 (slide 21) — congestion rate vs packets/burst, by flits/packet;
//	Figure 4 (slide 22) — average latency vs packets/burst, saturating.
//
// Each function returns a structured result with a Table() rendering;
// cmd/nocbench prints them and the root bench_test.go wraps each in a
// benchmark.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/resource"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

// mixedPaperConfig builds the paper's device mix: TG0/TG1 stochastic
// uniform, TG2/TG3 trace-driven; TR100/TR101 stochastic, TR102/TR103
// trace-driven.
func mixedPaperConfig(packetsPerTG uint64) (platform.Config, error) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{
		Traffic: platform.PaperUniform, PacketsPerTG: packetsPerTG,
	})
	if err != nil {
		return platform.Config{}, err
	}
	for i := range cfg.TGs {
		if cfg.TGs[i].Endpoint < 2 {
			continue
		}
		dst := flit.EndpointID(100 + cfg.TGs[i].Endpoint)
		n := int(packetsPerTG)
		if n == 0 {
			n = 1000
		}
		tr, err := trace.SynthBurst(trace.BurstConfig{
			Name: fmt.Sprintf("mixed-tg%d", cfg.TGs[i].Endpoint), Dst: dst,
			NumBursts: (n + 7) / 8, PacketsPerBurst: 8, FlitsPerPacket: 9, Load: 0.45,
		})
		if err != nil {
			return platform.Config{}, err
		}
		cfg.TGs[i].Gen = &traffic.TraceConfig{Trace: tr}
		cfg.TGs[i].Limit = 0
	}
	for i := range cfg.TRs {
		if cfg.TRs[i].Endpoint >= 102 {
			cfg.TRs[i].Mode = receptor.TraceDriven
			if packetsPerTG > 0 {
				n := int(packetsPerTG)
				cfg.TRs[i].ExpectPackets = uint64(((n + 7) / 8) * 8)
			}
		}
	}
	return cfg, nil
}

// Table1Row compares one device kind against the paper.
type Table1Row struct {
	Device      string
	Kind        string
	Slices      int
	Percent     float64
	PaperSlices int
}

// Table1Result reproduces the slide-17 synthesis table.
type Table1Result struct {
	Rows        []Table1Row
	TotalSlices int
	TotalPct    float64
	PaperTotal  int
	Target      resource.TargetDevice
}

// Table1 builds the paper's mixed platform and estimates its area.
func Table1() (*Table1Result, error) {
	cfg, err := mixedPaperConfig(64)
	if err != nil {
		return nil, err
	}
	p, err := platform.Build(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := resource.Estimate(p, resource.VirtexIIPro)
	if err != nil {
		return nil, err
	}
	paperByKind := map[string]int{
		"TG stochastic":   resource.PaperTGStochasticSlices,
		"TG trace driven": resource.PaperTGTraceSlices,
		"TR stochastic":   resource.PaperTRStochasticSlices,
		"TR trace driven": resource.PaperTRTraceSlices,
		"control module":  resource.PaperControlSlices,
	}
	res := &Table1Result{
		TotalSlices: rep.TotalSlices,
		TotalPct:    rep.TotalPct,
		PaperTotal:  resource.PaperPlatformSlices,
		Target:      rep.Target,
	}
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		if seen[r.Kind] && r.Kind != "switch" {
			continue // one representative row per device kind
		}
		if r.Kind == "switch" && seen[r.Kind] {
			continue
		}
		seen[r.Kind] = true
		res.Rows = append(res.Rows, Table1Row{
			Device: r.Device, Kind: r.Kind, Slices: r.Slices,
			Percent: r.Percent, PaperSlices: paperByKind[r.Kind],
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Table1Result) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device kind\tslices\tFPGA %\tpaper slices")
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperSlices > 0 {
			paper = fmt.Sprintf("%d", row.PaperSlices)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\n", row.Kind, row.Slices, row.Percent, paper)
	}
	fmt.Fprintf(tw, "platform total\t%d\t%.1f\t%d (80%%)\n", r.TotalSlices, r.TotalPct, r.PaperTotal)
	tw.Flush()
	fmt.Fprintf(&sb, "target: %s (%d slices)\n", r.Target.Name, r.Target.Slices)
	return sb.String()
}
