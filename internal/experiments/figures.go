package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nocemu/internal/platform"
	"nocemu/internal/stats"
)

// Figure1Result reproduces the slide-19 setup check: with every TG at
// 45% of link bandwidth and pinned two-way routing, links S2->S4 and
// S3->S5 carry ~90%.
type Figure1Result struct {
	// HotLoads are the measured utilizations of the two hot links.
	HotLoads [2]float64
	// Loads holds every link's (from, to, load).
	Loads []LinkLoad
	// OfferedPerTG is the configured per-generator load.
	OfferedPerTG float64
}

// LinkLoad is one link's measured utilization.
type LinkLoad struct {
	Index    int
	From, To int
	Load     float64
}

// Figure1 measures the reference platform's link loads over a steady
// window after warm-up.
func Figure1(warmup, window uint64) (*Figure1Result, error) {
	if warmup == 0 {
		warmup = 5_000
	}
	if window == 0 {
		window = 100_000
	}
	p, err := platform.BuildPaper(platform.PaperOptions{Traffic: platform.PaperUniform})
	if err != nil {
		return nil, err
	}
	p.RunCycles(warmup)
	p.ResetStats()
	p.RunCycles(window)
	hotA, hotB, err := p.PaperHotLinks()
	if err != nil {
		return nil, err
	}
	loads := p.LinkLoads()
	res := &Figure1Result{
		HotLoads:     [2]float64{loads[hotA], loads[hotB]},
		OfferedPerTG: 0.45,
	}
	for i, ls := range p.Config().Topology.Links() {
		res.Loads = append(res.Loads, LinkLoad{
			Index: i, From: int(ls.From), To: int(ls.To), Load: loads[i],
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Figure1Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-TG offered load: %.0f%%; hot links S2->S4 = %.1f%%, S3->S5 = %.1f%% (paper: 90%%)\n",
		r.OfferedPerTG*100, r.HotLoads[0]*100, r.HotLoads[1]*100)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "link\tfrom\tto\tload %")
	for _, l := range r.Loads {
		fmt.Fprintf(tw, "%d\tsw%d\tsw%d\t%.1f\n", l.Index, l.From, l.To, l.Load*100)
	}
	tw.Flush()
	return sb.String()
}

// Figure2Result reproduces slide 20: emulated run-time versus number of
// sent packets for uniform and burst stochastic traffic at equal
// offered load. Burst traffic congests the NoC more, so its curve lies
// above the uniform one.
type Figure2Result struct {
	// Uniform and Burst map total packets sent (x) to emulated cycles
	// needed to deliver them (y).
	Uniform stats.Series
	Burst   stats.Series
}

// Figure2 sweeps total packet counts (split across the 4 TGs).
func Figure2(packetCounts []uint64) (*Figure2Result, error) {
	if len(packetCounts) == 0 {
		packetCounts = []uint64{400, 1_000, 2_000, 4_000, 8_000}
	}
	res := &Figure2Result{
		Uniform: stats.Series{Name: "uniform"},
		Burst:   stats.Series{Name: "burst"},
	}
	for _, total := range packetCounts {
		perTG := total / 4
		if perTG == 0 {
			return nil, fmt.Errorf("experiments: packet count %d too small", total)
		}
		for _, traf := range []platform.PaperTraffic{platform.PaperUniform, platform.PaperBurst} {
			p, err := platform.BuildPaper(platform.PaperOptions{
				Traffic: traf, PacketsPerTG: perTG,
			})
			if err != nil {
				return nil, err
			}
			cycles, stopped := p.Run(200_000_000)
			if !stopped {
				return nil, fmt.Errorf("experiments: %s run at %d packets did not finish", traf, total)
			}
			switch traf {
			case platform.PaperUniform:
				res.Uniform.Add(float64(total), float64(cycles))
			case platform.PaperBurst:
				res.Burst.Add(float64(total), float64(cycles))
			}
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Figure2Result) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "packets sent\tuniform cycles\tburst cycles\tburst/uniform")
	u, b := r.Uniform.Sorted(), r.Burst.Sorted()
	for i, pt := range u.Points {
		ratio := 0.0
		if i < len(b.Points) && pt.Y > 0 {
			ratio = b.Points[i].Y / pt.Y
		}
		fmt.Fprintf(tw, "%.0f\t%.0f\t%.0f\t%.2f\n", pt.X, pt.Y, b.Points[i].Y, ratio)
	}
	tw.Flush()
	return sb.String()
}

// CSV returns the two curves.
func (r *Figure2Result) CSV() []stats.Series { return []stats.Series{r.Uniform, r.Burst} }

// Figure3Curve is one flits/packet curve of figure 3.
type Figure3Curve struct {
	FlitsPerPacket int
	// Series maps packets/burst (x) to the receptors' congestion
	// counter, normalized per delivered packet (cycles of latency in
	// excess of the per-source minimum). The platform-level blocked
	// fraction is scale-invariant in flit length; the per-packet
	// excess is what separates the paper's flits/packet curves.
	Series stats.Series
}

// Figure3Result reproduces slide 21: congestion rate versus number of
// packets per burst, one curve per flits/packet, with trace-driven
// traffic devices.
type Figure3Result struct {
	Curves []Figure3Curve
}

// Figure3 sweeps burst sizes for several packet lengths at the paper's
// 45% offered load.
func Figure3(packetsPerBurst []int, flitsPerPacket []int, packetsPerTG uint64) (*Figure3Result, error) {
	if len(packetsPerBurst) == 0 {
		packetsPerBurst = []int{1, 2, 4, 8, 16, 32}
	}
	if len(flitsPerPacket) == 0 {
		flitsPerPacket = []int{2, 4, 8}
	}
	if packetsPerTG == 0 {
		packetsPerTG = 512
	}
	res := &Figure3Result{}
	for _, fpp := range flitsPerPacket {
		curve := Figure3Curve{FlitsPerPacket: fpp}
		curve.Series.Name = fmt.Sprintf("%d flits/packet", fpp)
		for _, ppb := range packetsPerBurst {
			p, err := platform.BuildPaper(platform.PaperOptions{
				Traffic:         platform.PaperTrace,
				PacketsPerTG:    packetsPerTG,
				PacketsPerBurst: ppb,
				FlitsPerPacket:  fpp,
			})
			if err != nil {
				return nil, err
			}
			if _, stopped := p.Run(200_000_000); !stopped {
				return nil, fmt.Errorf("experiments: figure3 run ppb=%d fpp=%d did not finish", ppb, fpp)
			}
			tot := p.Totals()
			perPacket := 0.0
			if tot.PacketsReceived > 0 {
				perPacket = float64(tot.CongestionCycles) / float64(tot.PacketsReceived)
			}
			curve.Series.Add(float64(ppb), perPacket)
		}
		res.Curves = append(res.Curves, curve)
	}
	return res, nil
}

// Table renders the result.
func (r *Figure3Result) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "packets/burst")
	for _, c := range r.Curves {
		fmt.Fprintf(tw, "\t%s", c.Series.Name)
	}
	fmt.Fprintln(tw)
	if len(r.Curves) > 0 {
		base := r.Curves[0].Series.Sorted()
		for _, pt := range base.Points {
			fmt.Fprintf(tw, "%.0f", pt.X)
			for _, c := range r.Curves {
				if y, ok := c.Series.YAt(pt.X); ok {
					fmt.Fprintf(tw, "\t%.2f", y)
				} else {
					fmt.Fprint(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return sb.String()
}

// CSV returns one curve per packet length.
func (r *Figure3Result) CSV() (s []stats.Series) {
	for _, c := range r.Curves {
		s = append(s, c.Series)
	}
	return s
}

// Figure4Result reproduces slide 22: average packet latency versus
// packets per burst with trace-driven devices. The latency climbs with
// burstiness and flattens at a maximum set by the path buffering and
// the 90% hot-link load.
type Figure4Result struct {
	// Series maps packets/burst (x) to mean network latency in cycles.
	Series stats.Series
	// MaxLatency is the plateau value (the paper's "maximum").
	MaxLatency float64
	// FlitsPerPacket is the packet length used.
	FlitsPerPacket int
}

// Figure4 sweeps burst sizes at fixed packet length.
func Figure4(packetsPerBurst []int, flitsPerPacket int, packetsPerTG uint64) (*Figure4Result, error) {
	if len(packetsPerBurst) == 0 {
		packetsPerBurst = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if flitsPerPacket == 0 {
		flitsPerPacket = 4
	}
	if packetsPerTG == 0 {
		packetsPerTG = 512
	}
	res := &Figure4Result{FlitsPerPacket: flitsPerPacket}
	res.Series.Name = "mean latency"
	for _, ppb := range packetsPerBurst {
		p, err := platform.BuildPaper(platform.PaperOptions{
			Traffic:         platform.PaperTrace,
			PacketsPerTG:    packetsPerTG,
			PacketsPerBurst: ppb,
			FlitsPerPacket:  flitsPerPacket,
		})
		if err != nil {
			return nil, err
		}
		if _, stopped := p.Run(200_000_000); !stopped {
			return nil, fmt.Errorf("experiments: figure4 run ppb=%d did not finish", ppb)
		}
		lat := p.Totals().MeanNetLatency
		res.Series.Add(float64(ppb), lat)
		if lat > res.MaxLatency {
			res.MaxLatency = lat
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Figure4Result) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "packets/burst\tmean latency (cycles)")
	for _, pt := range r.Series.Sorted().Points {
		fmt.Fprintf(tw, "%.0f\t%.1f\n", pt.X, pt.Y)
	}
	tw.Flush()
	fmt.Fprintf(&sb, "latency maximum: %.1f cycles at %d flits/packet\n", r.MaxLatency, r.FlitsPerPacket)
	return sb.String()
}

// CSV returns the latency curve.
func (r *Figure4Result) CSV() []stats.Series { return []stats.Series{r.Series} }
