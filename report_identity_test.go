package nocemu_test

// The bus-sourced monitor must be indistinguishable from the old
// struct-walking one: every number in the report now travels over the
// register buses, and this test pins the refactor by comparing the new
// output byte-for-byte against a reference renderer that reads the
// simulation structs directly (the pre-refactor monitor, kept here
// verbatim).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"text/tabwriter"

	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/stats"
)

func runPaper(t *testing.T, traf platform.PaperTraffic) *platform.Platform {
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

// referenceReport is the pre-refactor monitor.WriteReport, reading the
// component structs directly instead of the buses.
func referenceReport(w io.Writer, p *platform.Platform) error {
	tot := p.Totals()
	fmt.Fprintf(w, "=== NoC emulation report: %s ===\n", p.Name())
	fmt.Fprintf(w, "cycles: %d\n", tot.Cycles)
	fmt.Fprintf(w, "packets: offered %d, sent %d, received %d\n",
		tot.PacketsOffered, tot.PacketsSent, tot.PacketsReceived)
	fmt.Fprintf(w, "flits: sent %d, received %d, routed %d\n",
		tot.FlitsSent, tot.FlitsReceived, tot.FlitsRouted)
	fmt.Fprintf(w, "congestion: rate %.4f, blocked cycles %d\n",
		tot.CongestionRate, tot.BlockedCycles)
	if tot.MeanNetLatency > 0 {
		fmt.Fprintf(w, "latency: mean %.2f cycles, receptor congestion %d cycles\n",
			tot.MeanNetLatency, tot.CongestionCycles)
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\n--- traffic generators ---")
	fmt.Fprintln(tw, "device\tmodel\toffered\tsent\tflits\tstalls\tbackpressure")
	for _, tg := range p.TGs() {
		st := tg.Stats()
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			tg.ComponentName(), tg.Generator().ModelName(),
			st.Offered, st.Injector.PacketsSent, st.Injector.FlitsSent,
			st.Injector.StallCycles, st.BackpressureCycles)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n--- traffic receptors ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tmode\tpackets\tflits\trun time\tlat mean\tlat max\tcongestion")
	for _, tr := range p.TRs() {
		st := tr.Stats()
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.0f\t%d\n",
			tr.ComponentName(), st.Mode, st.Packets, st.Flits, st.RunningTime,
			st.NetLatencyMean, st.NetLatencyMax, st.CongestionCycles)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	var flowRows bool
	for _, tr := range p.TRs() {
		if tr.Flows() > 0 {
			flowRows = true
			break
		}
	}
	if flowRows {
		fmt.Fprintln(w, "\n--- per-flow latency ---")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "flow\tpackets\tlat mean\tlat max")
		for _, tr := range p.TRs() {
			for i := 0; i < tr.Flows(); i++ {
				fl, _ := tr.Flow(i)
				fmt.Fprintf(tw, "tg%d -> %s\t%d\t%.2f\t%.0f\n",
					fl.Src, tr.ComponentName(), fl.Packets, fl.Mean, fl.Max)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\n--- switches ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tflits\tpackets\tblocked\tcongestion")
	for _, sw := range p.Switches() {
		st := sw.Stats()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.4f\n",
			sw.ComponentName(), st.FlitsRouted, st.PacketsRouted,
			st.BlockedCycles, st.CongestionRate())
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n--- link loads ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "link\tfrom\tto\tload\tflits")
	loads := p.LinkLoads()
	for i, ls := range p.Config().Topology.Links() {
		l, _ := p.Link(i)
		fmt.Fprintf(tw, "%d\tsw%d\tsw%d\t%.4f\t%d\n", i, ls.From, ls.To, loads[i], l.Flits())
	}
	return tw.Flush()
}

// referenceHistograms is the pre-refactor monitor.WriteHistograms.
func referenceHistograms(w io.Writer, p *platform.Platform, width int) {
	for _, tr := range p.TRs() {
		fmt.Fprintf(w, "--- %s ---\n", tr.ComponentName())
		if tr.Mode() == receptor.Stochastic {
			fmt.Fprintln(w, "packet sizes:")
			fmt.Fprint(w, render(tr.SizeHist(), width))
			fmt.Fprintln(w, "inter-arrival gaps:")
			fmt.Fprint(w, render(tr.GapHist(), width))
		} else {
			fmt.Fprintln(w, "latency:")
			fmt.Fprint(w, render(tr.LatHist(), width))
		}
	}
}

// render draws a histogram from the struct's own bins.
func render(h *stats.Histogram, width int) string {
	bins := make([]uint64, h.NumBins())
	for i := range bins {
		bins[i] = h.Bin(i)
	}
	return stats.RenderBins(h.BinWidth(), bins, h.Overflow(), width)
}

// The reference JSON summary mirrors the monitor's exported Summary
// shape, filled from the structs.
type refSummary struct {
	Name   string          `json:"name"`
	Totals platform.Totals `json:"totals"`
	TGs    []refTG         `json:"tgs"`
	TRs    []refTR         `json:"trs"`
	Links  []refLink       `json:"links"`
}

type refTG struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Offered uint64 `json:"offered"`
	Sent    uint64 `json:"sent"`
	Flits   uint64 `json:"flits"`
}

type refTR struct {
	Name       string  `json:"name"`
	Mode       string  `json:"mode"`
	Packets    uint64  `json:"packets"`
	Flits      uint64  `json:"flits"`
	LatMean    float64 `json:"lat_mean"`
	LatMax     float64 `json:"lat_max"`
	Congestion uint64  `json:"congestion_cycles"`
}

type refLink struct {
	Index int     `json:"index"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Load  float64 `json:"load"`
}

func referenceJSON(w io.Writer, p *platform.Platform) error {
	s := refSummary{Name: p.Name(), Totals: p.Totals()}
	for _, tg := range p.TGs() {
		st := tg.Stats()
		s.TGs = append(s.TGs, refTG{
			Name: tg.ComponentName(), Model: tg.Generator().ModelName(),
			Offered: st.Offered, Sent: st.Injector.PacketsSent, Flits: st.Injector.FlitsSent,
		})
	}
	for _, tr := range p.TRs() {
		st := tr.Stats()
		s.TRs = append(s.TRs, refTR{
			Name: tr.ComponentName(), Mode: string(st.Mode),
			Packets: st.Packets, Flits: st.Flits,
			LatMean: st.NetLatencyMean, LatMax: st.NetLatencyMax,
			Congestion: st.CongestionCycles,
		})
	}
	loads := p.LinkLoads()
	for i, ls := range p.Config().Topology.Links() {
		s.Links = append(s.Links, refLink{
			Index: i, From: int(ls.From), To: int(ls.To), Load: loads[i],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// TestBusReportByteIdentical is the refactor's acceptance gate: on the
// paper's 6-switch platform, the report assembled purely from register
// reads must match the struct-sourced reference byte-for-byte, for both
// stochastic and trace traffic.
func TestBusReportByteIdentical(t *testing.T) {
	for _, traf := range []platform.PaperTraffic{platform.PaperUniform, platform.PaperTrace} {
		t.Run(string(traf), func(t *testing.T) {
			p := runPaper(t, traf)

			var want, got bytes.Buffer
			if err := referenceReport(&want, p); err != nil {
				t.Fatal(err)
			}
			if err := monitor.WriteReport(&got, p, nil); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Errorf("bus-sourced report differs from struct-sourced reference:\n--- want ---\n%s\n--- got ---\n%s",
					want.String(), got.String())
			}

			want.Reset()
			got.Reset()
			referenceHistograms(&want, p, 40)
			if err := monitor.WriteHistograms(&got, p, 40); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Errorf("bus-sourced histograms differ from reference:\n--- want ---\n%s\n--- got ---\n%s",
					want.String(), got.String())
			}

			want.Reset()
			got.Reset()
			if err := referenceJSON(&want, p); err != nil {
				t.Fatal(err)
			}
			if err := monitor.WriteJSON(&got, p); err != nil {
				t.Fatal(err)
			}
			if want.String() != got.String() {
				t.Errorf("bus-sourced JSON differs from reference:\n--- want ---\n%s\n--- got ---\n%s",
					want.String(), got.String())
			}
		})
	}
}
