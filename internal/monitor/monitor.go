// Package monitor renders emulation results for the user — the paper's
// monitor, which "displays on the screen of a PC the information
// extracted from NoC emulation components". Every number in a report is
// read over the platform's internal register buses: the monitor is a
// pure bus master and never touches the simulation structs, exactly
// like the paper's host PC behind the communication interface.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"nocemu/internal/platform"
	"nocemu/internal/regmap"
	"nocemu/internal/resource"
	"nocemu/internal/stats"
)

// WriteReport renders the full post-emulation report. syn may be nil to
// omit the synthesis section.
func WriteReport(w io.Writer, p *platform.Platform, syn *resource.Report) error {
	if p == nil {
		return fmt.Errorf("monitor: nil platform")
	}
	v, err := ScanBus(p.System())
	if err != nil {
		return err
	}
	tgs, err := v.readTGs()
	if err != nil {
		return err
	}
	trs, err := v.readTRs()
	if err != nil {
		return err
	}
	sws, err := v.readSwitches()
	if err != nil {
		return err
	}
	links, err := v.readLinks()
	if err != nil {
		return err
	}
	tot, err := v.totals(tgs, trs, sws)
	if err != nil {
		return err
	}

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
	for _, r := range tgs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.name, r.model, r.offered, r.sent, r.flits, r.stalls, r.backpressure)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n--- traffic receptors ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tmode\tpackets\tflits\trun time\tlat mean\tlat max\tcongestion")
	for _, r := range trs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.0f\t%d\n",
			r.name, r.mode, r.packets, r.flits, r.runningTime,
			r.latMean, r.latMax, r.congestion)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Per-flow latency breakdown from the trace-driven receptors.
	var flowRows bool
	for _, r := range trs {
		if len(r.flows) > 0 {
			flowRows = true
			break
		}
	}
	if flowRows {
		fmt.Fprintln(w, "\n--- per-flow latency ---")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "flow\tpackets\tlat mean\tlat max")
		for _, r := range trs {
			for _, fl := range r.flows {
				fmt.Fprintf(tw, "tg%d -> %s\t%d\t%.2f\t%.0f\n",
					fl.src, r.name, fl.packets, fl.mean, fl.max)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\n--- switches ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tflits\tpackets\tblocked\tcongestion")
	for _, r := range sws {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.4f\n",
			r.name, r.flits, r.packets, r.blocked, r.rate)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n--- link loads ---")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "link\tfrom\tto\tload\tflits")
	specs := p.Config().Topology.Links()
	for i, r := range links { // the mapped links; see WriteJSON
		fmt.Fprintf(tw, "%d\tsw%d\tsw%d\t%.4f\t%d\n", i, specs[i].From, specs[i].To, r.load, r.flits)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if syn != nil {
		fmt.Fprintln(w, "\n--- synthesis estimate ---")
		if err := WriteSynthesis(w, syn); err != nil {
			return err
		}
	}
	return nil
}

// WriteSynthesis renders the resource report as the paper's Table 1.
func WriteSynthesis(w io.Writer, syn *resource.Report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "device\tkind\tslices\tFPGA %%\n")
	for _, r := range syn.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\n", r.Device, r.Kind, r.Slices, r.Percent)
	}
	fmt.Fprintf(tw, "TOTAL\t%s\t%d\t%.1f\n", syn.Target.Name, syn.TotalSlices, syn.TotalPct)
	return tw.Flush()
}

// WriteHistograms renders every receptor histogram (size, gap, latency
// where present) as ASCII art, read bin by bin over each receptor's
// histogram window.
func WriteHistograms(w io.Writer, p *platform.Platform, width int) error {
	v, err := ScanBus(p.System())
	if err != nil {
		return err
	}
	for _, d := range v.TRs {
		sub, err := d.Read(regmap.RegSubtype)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s ---\n", d.Name)
		if sub == regmap.SubtypeStochastic {
			for _, h := range []struct {
				title string
				sel   uint32
			}{
				{"packet sizes:", regmap.HistSize},
				{"inter-arrival gaps:", regmap.HistGap},
			} {
				bw, bins, over, err := readHist(d, h.sel)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, h.title)
				fmt.Fprint(w, stats.RenderBins(bw, bins, over, width))
			}
		} else {
			bw, bins, over, err := readHist(d, regmap.HistLat)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "latency:")
			fmt.Fprint(w, stats.RenderBins(bw, bins, over, width))
		}
	}
	return nil
}

// WriteSeriesCSV emits experiment curves as CSV: one x column, one
// column per series (aligned by x of the first series).
func WriteSeriesCSV(w io.Writer, series ...stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("monitor: no series")
	}
	fmt.Fprint(w, "x")
	for _, s := range series {
		fmt.Fprintf(w, ",%s", s.Name)
	}
	fmt.Fprintln(w)
	base := series[0].Sorted()
	for _, pt := range base.Points {
		fmt.Fprintf(w, "%g", pt.X)
		for _, s := range series {
			if y, ok := s.YAt(pt.X); ok {
				fmt.Fprintf(w, ",%g", y)
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Summary is the JSON shape of a platform snapshot.
type Summary struct {
	Name   string          `json:"name"`
	Totals platform.Totals `json:"totals"`
	TGs    []TGSummary     `json:"tgs"`
	TRs    []TRSummary     `json:"trs"`
	Links  []LinkSummary   `json:"links"`
}

// TGSummary is one generator's JSON row.
type TGSummary struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Offered uint64 `json:"offered"`
	Sent    uint64 `json:"sent"`
	Flits   uint64 `json:"flits"`
}

// TRSummary is one receptor's JSON row.
type TRSummary struct {
	Name       string  `json:"name"`
	Mode       string  `json:"mode"`
	Packets    uint64  `json:"packets"`
	Flits      uint64  `json:"flits"`
	LatMean    float64 `json:"lat_mean"`
	LatMax     float64 `json:"lat_max"`
	Congestion uint64  `json:"congestion_cycles"`
}

// LinkSummary is one link's JSON row.
type LinkSummary struct {
	Index int     `json:"index"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Load  float64 `json:"load"`
}

// WriteJSON emits the platform snapshot as indented JSON.
func WriteJSON(w io.Writer, p *platform.Platform) error {
	if p == nil {
		return fmt.Errorf("monitor: nil platform")
	}
	v, err := ScanBus(p.System())
	if err != nil {
		return err
	}
	tgs, err := v.readTGs()
	if err != nil {
		return err
	}
	trs, err := v.readTRs()
	if err != nil {
		return err
	}
	sws, err := v.readSwitches()
	if err != nil {
		return err
	}
	links, err := v.readLinks()
	if err != nil {
		return err
	}
	tot, err := v.totals(tgs, trs, sws)
	if err != nil {
		return err
	}
	s := Summary{Name: p.Name(), Totals: tot}
	for _, r := range tgs {
		s.TGs = append(s.TGs, TGSummary{
			Name: r.name, Model: r.model,
			Offered: r.offered, Sent: r.sent, Flits: r.flits,
		})
	}
	for _, r := range trs {
		s.TRs = append(s.TRs, TRSummary{
			Name: r.name, Mode: r.mode,
			Packets: r.packets, Flits: r.flits,
			LatMean: r.latMean, LatMax: r.latMax,
			Congestion: r.congestion,
		})
	}
	// Link devices attach in topology order and a platform past the bus
	// budget leaves the tail unmapped (Platform.Unmapped), so the rows
	// read are a prefix of the topology's links.
	specs := p.Config().Topology.Links()
	for i, r := range links {
		s.Links = append(s.Links, LinkSummary{
			Index: i, From: int(specs[i].From), To: int(specs[i].To), Load: r.load,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
