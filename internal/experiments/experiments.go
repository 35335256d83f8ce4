// Package experiments regenerates the paper's evaluation — two tables
// and four figures, slides 17–22 — and four extension studies. Each
// function returns a structured result with a Table() rendering;
// Artifacts lists them as cmd/nocbench prints them.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"

	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/resource"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

// Artifact is one table or figure as cmd/nocbench prints it: Key is
// its -exp selector, Title its === banner, Run regenerates it at its
// defaults, and CSV names the file a figure's CSV() series go to.
type Artifact struct {
	Key, Title, CSV string
	Run             func() (Result, error)
}

// Result is an artifact's output, rendered as a text table.
type Result interface{ Table() string }

// Artifacts is the evaluation in print order.
var Artifacts = []Artifact{
	{"t1", "Table 1: FPGA resources per device (slide 17)", "", func() (Result, error) { return Table1() }},
	{"t2", "Table 2: simulation speed comparison (slide 18)", "", func() (Result, error) { return Table2(Table2Options{}) }},
	{"f1", "Figure 1: experimental setup link loads (slide 19)", "", func() (Result, error) { return Figure1(0, 0) }},
	{"f2", "Figure 2: run-time vs packets sent (slide 20)", "figure2.csv", func() (Result, error) { return Figure2(nil) }},
	{"f3", "Figure 3: congestion vs packets/burst (slide 21)", "figure3.csv", func() (Result, error) { return Figure3(nil, nil, 0) }},
	{"scale", "Extension: platform scaling (paper conclusion)", "", func() (Result, error) { return Scale(nil, 0) }},
	{"sat", "Extension: load/latency saturation on the reference platform", "saturation.csv", func() (Result, error) { return Saturation(nil, 0) }},
	{"buf", "Extension: buffer-depth trade-off (the third switch parameter)", "", func() (Result, error) { return BufferStudy(nil, 0) }},
	{"vc", "Extension: wormhole vs 2-VC dateline on the torus rings (torus:w=4,h=4,minimal=1, vcs=1 vs vcs=2)", "", func() (Result, error) { return VCStudy(nil, 0, 0) }},
	{"f4", "Figure 4: average latency vs packets/burst (slide 22)", "figure4.csv", func() (Result, error) { return Figure4(nil, 0, 0) }},
}

// Select returns the artifacts a comma-separated key list names, in table
// order; "none" names nothing, and an unknown key is an error.
func Select(list string) (out []Artifact, err error) {
	want := strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
	var keys []string
	for _, a := range Artifacts {
		keys = append(keys, a.Key)
		if slices.Contains(want, a.Key) {
			out = append(out, a)
		}
	}
	for _, k := range want {
		if k != "none" && !slices.Contains(keys, k) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, none)", k, strings.Join(keys, ","))
		}
	}
	return out, nil
}

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
		if seen[r.Kind] {
			continue // one representative row per device kind
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
