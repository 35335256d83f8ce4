package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"nocemu/internal/platform"
	"nocemu/internal/rtl"
	"nocemu/internal/tlm"
)

// Table2Row is one simulation mode's speed measurement.
type Table2Row struct {
	Mode string
	// CyclesPerSec is the measured simulation speed on this host.
	CyclesPerSec float64
	// T16M and T1000M extrapolate the wall time for the paper's 16
	// Mpackets and 1000 Mpackets workloads.
	T16M, T1000M time.Duration
	// PaperCyclesPerSec is the value the paper reports for the
	// corresponding mode (FPGA / SystemC MPARM / ModelSim).
	PaperCyclesPerSec float64
	PaperT16M         string
	PaperT1000M       string
}

// Table2Result reproduces the slide-18 speed comparison.
type Table2Result struct {
	Rows []Table2Row
	// CyclesPerPacket is the measured platform cost of one packet,
	// used for the extrapolations (the paper's workload implies 10).
	CyclesPerPacket float64
}

// Table2Options sizes the measurement runs.
type Table2Options struct {
	// EmuCycles, TLMCycles, RTLCycles are the measured run lengths per
	// backend (defaults 400k / 60k / 8k — each comfortably > 1s of
	// simulated traffic while keeping the harness fast).
	EmuCycles uint64
	TLMCycles uint64
	RTLCycles uint64
}

func (o *Table2Options) applyDefaults() {
	if o.EmuCycles == 0 {
		o.EmuCycles = 400_000
	}
	if o.TLMCycles == 0 {
		o.TLMCycles = 60_000
	}
	if o.RTLCycles == 0 {
		o.RTLCycles = 8_000
	}
}

func paperRefCfg() (platform.Config, error) {
	return platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperUniform})
}

// MeasureEmulatorRate runs the reference platform on the fast engine
// for n cycles and returns cycles/second plus cycles/packet.
func MeasureEmulatorRate(n uint64) (rate, cyclesPerPacket float64, err error) {
	cfg, err := paperRefCfg()
	if err != nil {
		return 0, 0, err
	}
	p, err := platform.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	p.RunCycles(n)
	el := time.Since(start)
	tot := p.Totals()
	if tot.PacketsReceived == 0 {
		return 0, 0, fmt.Errorf("experiments: no packets in rate run")
	}
	return float64(n) / el.Seconds(), float64(n) / float64(tot.PacketsReceived), nil
}

// MeasureTLMRate runs the reference platform under the SystemC-like
// scheduler for n cycles and returns cycles/second. The scheduler
// itself gives every switch its own processes, as SystemC modules get
// from their kernel; a wire is a signal its writer updates, with no
// process of its own (the wire arena, one plain component committing
// faulted wires only, is one process pair).
func MeasureTLMRate(n uint64) (float64, error) {
	cfg, err := paperRefCfg()
	if err != nil {
		return 0, err
	}
	p, err := platform.Build(cfg)
	if err != nil {
		return 0, err
	}
	sim, err := tlm.New(p.Engine())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	sim.Run(n)
	return float64(n) / time.Since(start).Seconds(), nil
}

// MeasureRTLRate runs the reference platform at signal-level RTL for n
// cycles and returns cycles/second.
func MeasureRTLRate(n uint64) (float64, error) {
	cfg, err := paperRefCfg()
	if err != nil {
		return 0, err
	}
	p, err := rtl.Build(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	p.RunCycles(n)
	return float64(n) / time.Since(start).Seconds(), nil
}

// Table2 measures all three backends and extrapolates the paper's two
// workload sizes.
func Table2(opt Table2Options) (*Table2Result, error) {
	opt.applyDefaults()
	emuRate, cpp, err := MeasureEmulatorRate(opt.EmuCycles)
	if err != nil {
		return nil, err
	}
	tlmRate, err := MeasureTLMRate(opt.TLMCycles)
	if err != nil {
		return nil, err
	}
	rtlRate, err := MeasureRTLRate(opt.RTLCycles)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{CyclesPerPacket: cpp}
	extrap := func(rate float64, packets float64) time.Duration {
		cycles := packets * cpp
		return time.Duration(cycles / rate * float64(time.Second))
	}
	add := func(mode string, rate, paperRate float64, p16, p1000 string) {
		res.Rows = append(res.Rows, Table2Row{
			Mode:              mode,
			CyclesPerSec:      rate,
			T16M:              extrap(rate, 16e6),
			T1000M:            extrap(rate, 1000e6),
			PaperCyclesPerSec: paperRate,
			PaperT16M:         p16,
			PaperT1000M:       p1000,
		})
	}
	add("emulation (two-phase engine)", emuRate, 50e6, "3.2 s", "3 min 20 s")
	add("SystemC-like (event calendar)", tlmRate, 20e3, "2 h 13 min", "5 d 19 h")
	add("RTL-like (signal events)", rtlRate, 3.2e3, "13 h 53 min", "36 d 4 h")
	return res, nil
}

// Speedups returns emulator/TLM and emulator/RTL speed ratios.
func (r *Table2Result) Speedups() (overTLM, overRTL float64) {
	if len(r.Rows) < 3 {
		return 0, 0
	}
	return r.Rows[0].CyclesPerSec / r.Rows[1].CyclesPerSec,
		r.Rows[0].CyclesPerSec / r.Rows[2].CyclesPerSec
}

// Table renders the result.
func (r *Table2Result) Table() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tcycles/s\t16 Mpkt\t1000 Mpkt\tpaper cycles/s\tpaper 16 Mpkt\tpaper 1000 Mpkt")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3g\t%s\t%s\t%.3g\t%s\t%s\n",
			row.Mode, row.CyclesPerSec,
			row.T16M.Round(time.Millisecond), row.T1000M.Round(time.Second),
			row.PaperCyclesPerSec, row.PaperT16M, row.PaperT1000M)
	}
	tw.Flush()
	overTLM, overRTL := r.Speedups()
	fmt.Fprintf(&sb, "measured cycles/packet: %.1f; speedup over SystemC-like %.0fx, over RTL-like %.0fx\n",
		r.CyclesPerPacket, overTLM, overRTL)
	return sb.String()
}
