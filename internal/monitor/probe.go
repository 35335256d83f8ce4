package monitor

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/regmap"
)

// probeRow is one trace-metrics device's readout, pulled register by
// register over the bus like every other monitor statistic.
type probeRow struct {
	name     string
	events   uint64
	dropped  uint64
	rings    uint32
	winSize  uint32
	kinds    map[probe.Kind]uint64
	vcStalls []uint64
	windows  []windowRow
}

// windowRow is one sampling window of the time-series store.
type windowRow struct {
	inject, eject, route uint64
	drop, stall          uint64
	occ, busy            uint64
}

func (v *BusView) readProbes() ([]probeRow, error) {
	rows := make([]probeRow, 0, len(v.Probes))
	for _, d := range v.Probes {
		r := probeRow{name: d.Name, kinds: make(map[probe.Kind]uint64)}
		var err error
		if r.events, err = d.Read64(regmap.RegProbeEvents); err != nil {
			return nil, err
		}
		if r.dropped, err = d.Read64(regmap.RegProbeDropped); err != nil {
			return nil, err
		}
		if r.rings, err = d.Read(regmap.RegProbeRings); err != nil {
			return nil, err
		}
		if r.winSize, err = d.Read(regmap.RegProbeWinSize); err != nil {
			return nil, err
		}
		for k := probe.KindInject; k <= probe.KindFF; k++ {
			if err := d.Write(regmap.RegProbeKindSel, uint32(k)); err != nil {
				return nil, err
			}
			n, err := d.Read64(regmap.RegProbeKindCount)
			if err != nil {
				return nil, err
			}
			if n != 0 {
				r.kinds[k] = n
			}
		}
		numVCs, err := d.Read(regmap.RegProbeNumVCs)
		if err != nil {
			return nil, err
		}
		for vc := uint32(0); vc < numVCs; vc++ {
			if err := d.Write(regmap.RegProbeVCSel, vc); err != nil {
				return nil, err
			}
			n, err := d.Read64(regmap.RegProbeVCStalls)
			if err != nil {
				return nil, err
			}
			r.vcStalls = append(r.vcStalls, n)
		}
		winCount, err := d.Read(regmap.RegProbeWinCount)
		if err != nil {
			return nil, err
		}
		for k := uint32(0); k < winCount; k++ {
			if err := d.Write(regmap.RegProbeWinSel, k); err != nil {
				return nil, err
			}
			var wr windowRow
			for _, c := range []struct {
				reg uint32
				dst *uint64
			}{
				{regmap.RegProbeWinInject, &wr.inject},
				{regmap.RegProbeWinEject, &wr.eject},
				{regmap.RegProbeWinRoute, &wr.route},
				{regmap.RegProbeWinDrop, &wr.drop},
				{regmap.RegProbeWinStall, &wr.stall},
				{regmap.RegProbeWinOcc, &wr.occ},
				{regmap.RegProbeWinBusy, &wr.busy},
			} {
				if *c.dst, err = d.Read64(c.reg); err != nil {
					return nil, err
				}
			}
			r.windows = append(r.windows, wr)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// WriteTraceMetrics renders the trace collector's time-series metrics,
// read over the bus from the probe register bank. It is a no-op when
// the platform was built without tracing (no probe device on the bus).
func WriteTraceMetrics(w io.Writer, p *platform.Platform) error {
	if p == nil {
		return fmt.Errorf("monitor: nil platform")
	}
	v, err := ScanBus(p.System())
	if err != nil {
		return err
	}
	rows, err := v.readProbes()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "=== trace metrics: %s ===\n", p.Name())
		fmt.Fprintf(w, "events: %d collected, %d dropped, %d rings, window %d cycles\n",
			r.events, r.dropped, r.rings, r.winSize)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "kind\tcount")
		for k := probe.KindInject; k <= probe.KindFF; k++ {
			if n, ok := r.kinds[k]; ok {
				fmt.Fprintf(tw, "%s\t%d\n", k, n)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if len(r.vcStalls) > 0 {
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "vc\tcredit stalls")
			for vc, n := range r.vcStalls {
				fmt.Fprintf(tw, "%d\t%d\n", vc, n)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
		if len(r.windows) > 0 {
			fmt.Fprintln(w, "\n--- time series (per window) ---")
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "window\tinject\teject\troute\tdrop\tstall\toccupancy\tlink busy")
			for k, wr := range r.windows {
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
					k, wr.inject, wr.eject, wr.route, wr.drop, wr.stall, wr.occ, wr.busy)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}
