package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/resource"
	"nocemu/internal/stats"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// ScaleRow is one platform size of the scaling study.
type ScaleRow struct {
	// MeshW is the mesh edge (MeshW x MeshW switches).
	MeshW int
	// Switches and Devices count the platform's hardware.
	Switches, Devices int
	// Slices is the synthesis estimate.
	Slices int
	// Fits names the smallest Virtex-II Pro that holds it.
	Fits   string
	FitsOK bool
	// CyclesPerSec is the emulation speed at this size.
	CyclesPerSec float64
}

// ScaleResult extends the paper's conclusion — "with larger FPGAs, it
// will be possible to emulate very large NoCs (tens of switches)" —
// into a measured scaling study: platform area and emulation speed
// versus mesh size, fitted against the Virtex-II Pro family.
type ScaleResult struct {
	Rows []ScaleRow
}

// meshPlatform builds a w x w mesh with one TG per top-row switch and
// one TR per bottom-row switch, uniform traffic at modest load.
func meshPlatform(w int, seed uint32) (*platform.Platform, error) {
	topo, err := topology.Mesh(w, w)
	if err != nil {
		return nil, err
	}
	cfg := platform.Config{
		Name:     fmt.Sprintf("mesh-%dx%d", w, w),
		Topology: topo,
		Seed:     seed,
	}
	for x := 0; x < w; x++ {
		src := flit.EndpointID(x)
		dst := flit.EndpointID(100 + x)
		if err := topo.AddSource(src, topology.NodeID(x)); err != nil {
			return nil, err
		}
		if err := topo.AddSink(dst, topology.NodeID((w-1)*w+x)); err != nil {
			return nil, err
		}
		cfg.TGs = append(cfg.TGs, platform.TGSpec{
			Endpoint: src,
			Gen: &traffic.UniformConfig{
				LenMin: 4, LenMax: 4, GapMin: 12, GapMax: 12,
				Dst:         traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}},
				RandomPhase: true,
			},
		})
		cfg.TRs = append(cfg.TRs, platform.TRSpec{Endpoint: dst, Mode: receptor.TraceDriven})
	}
	return platform.Build(cfg)
}

// Scale measures meshes of the given edge sizes.
func Scale(meshEdges []int, measureCycles uint64) (*ScaleResult, error) {
	if len(meshEdges) == 0 {
		meshEdges = []int{2, 3, 4, 5, 6}
	}
	if measureCycles == 0 {
		measureCycles = 20_000
	}
	res := &ScaleResult{}
	for _, w := range meshEdges {
		p, err := meshPlatform(w, 1)
		if err != nil {
			return nil, err
		}
		syn, err := resource.Estimate(p, resource.VirtexIIPro)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p.RunCycles(measureCycles)
		rate := float64(measureCycles) / time.Since(start).Seconds()
		row := ScaleRow{
			MeshW:        w,
			Switches:     w * w,
			Devices:      len(syn.Rows),
			Slices:       syn.TotalSlices,
			CyclesPerSec: rate,
		}
		if dev, ok := resource.SmallestFit(syn.TotalSlices); ok {
			row.Fits, row.FitsOK = dev.Name, true
		} else {
			row.Fits = "none (family exhausted)"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *ScaleResult) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mesh\tswitches\tdevices\tslices\tsmallest FPGA\temu cycles/s")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%dx%d\t%d\t%d\t%d\t%s\t%.3g\n",
			row.MeshW, row.MeshW, row.Switches, row.Devices, row.Slices, row.Fits, row.CyclesPerSec)
	}
	tw.Flush()
	return sb.String()
}

// SaturationResult is the classic offered-load/latency curve on the
// reference platform — the quantitative backdrop of the paper's
// "latency reaches a maximum" observation: as per-TG load approaches
// 50% (hot links at 100%), latency departs from the zero-load value and
// climbs steeply.
type SaturationResult struct {
	// Latency maps per-TG offered load (x) to mean network latency (y).
	Latency stats.Series
	// Throughput maps offered load to delivered flits/cycle/TR.
	Throughput stats.Series
}

// Saturation sweeps per-TG offered load on the reference platform with
// trace-driven receptors (for the latency analyzer).
func Saturation(loads []float64, window uint64) (*SaturationResult, error) {
	if len(loads) == 0 {
		loads = []float64{0.10, 0.20, 0.30, 0.40, 0.45, 0.48, 0.55, 0.70}
	}
	if window == 0 {
		window = 60_000
	}
	res := &SaturationResult{
		Latency:    stats.Series{Name: "latency"},
		Throughput: stats.Series{Name: "throughput"},
	}
	for _, load := range loads {
		cfg, err := platform.PaperConfig(platform.PaperOptions{
			Traffic: platform.PaperUniform, Load: load,
		})
		if err != nil {
			return nil, err
		}
		// Latency analysis needs trace-driven receptors regardless of
		// the stochastic sources.
		for i := range cfg.TRs {
			cfg.TRs[i].Mode = receptor.TraceDriven
		}
		p, err := platform.Build(cfg)
		if err != nil {
			return nil, err
		}
		p.RunCycles(window / 6) // warm-up
		p.ResetStats()
		p.RunCycles(window)
		tot := p.Totals()
		res.Latency.Add(load, tot.MeanNetLatency)
		res.Throughput.Add(load, float64(tot.FlitsReceived)/float64(window)/4)
	}
	return res, nil
}

// Table renders the result.
func (r *SaturationResult) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "offered load/TG\tmean latency\tdelivered flits/cycle/TR")
	lat := r.Latency.Sorted()
	for _, pt := range lat.Points {
		thr, _ := r.Throughput.YAt(pt.X)
		fmt.Fprintf(tw, "%.2f\t%.1f\t%.3f\n", pt.X, pt.Y, thr)
	}
	tw.Flush()
	return sb.String()
}

// CSV returns the latency and throughput curves.
func (r *SaturationResult) CSV() []stats.Series { return []stats.Series{r.Latency, r.Throughput} }

// BufferRow is one buffer-depth point of the buffer study.
type BufferRow struct {
	Depth int
	// MeanLatency and CongestionRate are measured on the reference
	// platform at 45% load with trace-driven receptors.
	MeanLatency    float64
	CongestionRate float64
	// SwitchSlices is the area price of the depth (per 4x4 switch).
	SwitchSlices int
}

// BufferStudyResult sweeps the paper's third switch parameter — "size
// of buffers" — and shows both sides of the trade: deeper buffers
// absorb the 90%-link contention (latency and blocked fraction fall,
// then flatten once the credit round trip is covered), while the
// switch's slice count keeps growing linearly.
type BufferStudyResult struct {
	Rows []BufferRow
}

// BufferStudy measures the reference platform at several buffer depths.
func BufferStudy(depths []int, window uint64) (*BufferStudyResult, error) {
	if len(depths) == 0 {
		depths = []int{2, 4, 8, 16, 32}
	}
	if window == 0 {
		window = 60_000
	}
	res := &BufferStudyResult{}
	for _, depth := range depths {
		cfg, err := platform.PaperConfig(platform.PaperOptions{
			Traffic: platform.PaperUniform, BufDepth: depth,
		})
		if err != nil {
			return nil, err
		}
		for i := range cfg.TRs {
			cfg.TRs[i].Mode = receptor.TraceDriven
		}
		p, err := platform.Build(cfg)
		if err != nil {
			return nil, err
		}
		p.RunCycles(window / 6)
		p.ResetStats()
		p.RunCycles(window)
		tot := p.Totals()
		res.Rows = append(res.Rows, BufferRow{
			Depth:          depth,
			MeanLatency:    tot.MeanNetLatency,
			CongestionRate: tot.CongestionRate,
			SwitchSlices:   resource.EstimateSwitch(4, 4, depth),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *BufferStudyResult) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "buffer depth\tmean latency\tcongestion rate\tswitch slices (4x4)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.4f\t%d\n",
			row.Depth, row.MeanLatency, row.CongestionRate, row.SwitchSlices)
	}
	tw.Flush()
	return sb.String()
}
