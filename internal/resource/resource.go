// Package resource estimates the FPGA area of an emulation platform —
// the stand-in for the paper's physical-synthesis step (flow step 2)
// and the generator of its Table 1 (Xilinx slices per device).
//
// Real synthesis is unavailable here, so the package uses an
// architectural area model: each device type has a resource bill —
// flip-flops and 4-input LUTs derived from its parameters (register
// counts, buffer depths, histogram sizes, port counts) — and a slice
// estimate of (FF+LUT)/2 scaled by a per-device-type calibration
// coefficient fitted once against the paper's reported synthesis
// results on the Virtex-II Pro. The *scaling* with parameters is the
// model; the coefficients anchor its absolute level to the paper.
package resource

import (
	"fmt"
	"math"

	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/traffic"
)

// TargetDevice describes the FPGA the platform is fitted to.
type TargetDevice struct {
	Name   string
	Slices int
}

// VirtexIIPro is the paper's target: a Virtex-II Pro with 9280 slices
// (XC2VP20 class — the paper reports its 7387-slice platform as 80%).
var VirtexIIPro = TargetDevice{Name: "Virtex-II Pro (XC2VP20)", Slices: 9280}

// VirtexIIProFamily lists the paper-era device family in size order —
// the "larger FPGAs" its conclusion says will hold "very large NoCs
// (tens of switches)". The scale experiment fits growing platforms
// against it.
var VirtexIIProFamily = []TargetDevice{
	VirtexIIPro,
	{Name: "Virtex-II Pro (XC2VP30)", Slices: 13696},
	{Name: "Virtex-II Pro (XC2VP50)", Slices: 23616},
	{Name: "Virtex-II Pro (XC2VP70)", Slices: 33088},
	{Name: "Virtex-II Pro (XC2VP100)", Slices: 44096},
}

// SmallestFit returns the smallest family device the slice count fits
// in (ok=false when none does).
func SmallestFit(slices int) (TargetDevice, bool) {
	for _, d := range VirtexIIProFamily {
		if slices <= d.Slices {
			return d, true
		}
	}
	return TargetDevice{}, false
}

// Bill is a device's raw resource bill.
type Bill struct {
	FF  int // flip-flops
	LUT int // 4-input LUTs
}

// Slices converts a bill to Xilinx slices (2 FF + 2 LUT4 per slice)
// under a packing/control-overhead coefficient k.
func (b Bill) Slices(k float64) int {
	return int(math.Round(float64(b.FF+b.LUT) / 2 * k))
}

// flitBits is the emulated flit width used for buffer sizing.
const flitBits = 64

// TGStochasticBill models a stochastic traffic generator: LFSR,
// parameter registers, packet-generator FSM, statistics counters and
// the network interface with a queueFlits-deep source queue
// (distributed RAM).
func TGStochasticBill(paramRegs, counters, queueFlits int) Bill {
	ff := 32 + // LFSR
		32*paramRegs +
		48 + // sequence counter
		64*counters +
		24 + // FSM + credit state
		16 // queue pointers
	lut := 16 + // LFSR feedback
		40*paramRegs + // compare/mux per parameter
		220 + // packet build datapath
		32*counters +
		queueFlits*flitBits/16 // LUT-RAM: 16 bits per LUT
	return Bill{FF: ff, LUT: lut}
}

// TGTraceBill models a trace-driven generator: trace fetch pointer and
// cycle comparator replace the stochastic machinery; the trace itself
// sits in block RAM (not slices).
func TGTraceBill(counters, queueFlits int) Bill {
	ff := 64 + // trace pointer + record register
		48 + // cycle comparator register
		64*counters +
		24 + 16
	lut := 96 + // cycle compare
		200 + // packet build datapath
		32*counters +
		queueFlits*flitBits/16
	return Bill{FF: ff, LUT: lut}
}

// TRStochasticBill models a stochastic receptor: histogram RAMs
// (distributed), bin index datapath and counters.
func TRStochasticBill(sizeBins, gapBins, counters int) Bill {
	histBits := (sizeBins + gapBins) * 32
	ff := 64 + // arrival bookkeeping
		64*counters +
		16 // ejector state
	lut := 120 + // bin index computation
		histBits/16 +
		32*counters
	return Bill{FF: ff, LUT: lut}
}

// TRTraceBill models a trace-driven receptor: the latency analyzer
// (subtractor, min/max, running sums) and the congestion counter on top
// of a latency histogram.
func TRTraceBill(latBins, counters int) Bill {
	ff := 64 + // arrival bookkeeping
		3*64 + // latency accumulators (sum, min, max)
		64 + // congestion counter
		64*counters +
		16
	lut := 260 + // subtract/compare datapath
		latBins*32/16 +
		32*counters
	return Bill{FF: ff, LUT: lut}
}

// SwitchBill models a wormhole switch of numVC virtual channels per
// port: per-lane input buffers (distributed RAM), per-output arbiters
// over the input lanes, and the crossbar. Every virtual channel is a
// further FIFO, route latch, lock and credit counter on each port.
func SwitchBill(numIn, numOut, numVC, bufDepth int) Bill {
	inLanes, outLanes := numIn*numVC, numOut*numVC
	ff := inLanes*(16+8) + // buffer pointers + route latch per input lane
		outLanes*(8+8) + // lock + credit counter per output lane
		16
	lut := inLanes*bufDepth*flitBits/16 + // buffer LUT-RAM
		numOut*inLanes*12 + // crossbar muxes + arbitration
		numOut*24 + // routing-table lookup slice
		40
	return Bill{FF: ff, LUT: lut}
}

// ControlBill models the control module: cycle counter, enable fanout
// and bus decode for n devices.
func ControlBill(devices int) Bill {
	ff := 64 + 16
	lut := 90 + devices*2
	return Bill{FF: ff, LUT: lut}
}

// Calibration coefficients fitted so the default device parameters
// (the shapes used in the paper platform: 8 param regs is generous for
// 4, 5 counters, 16-flit queues, 32+32 histogram bins, 64 latency bins,
// paper switch of 4x4 with 8-flit buffers, 15-device platform)
// reproduce the paper's Table 1 slice counts.
var (
	kTGStochastic float64
	kTGTrace      float64
	kTRStochastic float64
	kTRTrace      float64
	kSwitch       float64
	kControl      float64
)

// Paper-reported slice counts (Table 1).
const (
	PaperTGStochasticSlices = 719
	PaperTGTraceSlices      = 652
	PaperTRStochasticSlices = 371
	PaperTRTraceSlices      = 690
	PaperControlSlices      = 218
	PaperPlatformSlices     = 7387
)

// defaultShapes are the parameter shapes used for calibration; they
// match the defaults the platform builder applies.
func defaultTGStochastic() Bill { return TGStochasticBill(4, 5, 32) }
func defaultTGTrace() Bill      { return TGTraceBill(5, 32) }
func defaultTRStochastic() Bill { return TRStochasticBill(32, 32, 4) }
func defaultTRTrace() Bill      { return TRTraceBill(64, 4) }
func defaultSwitch() Bill       { return SwitchBill(4, 4, 1, 8) }
func defaultControl() Bill      { return ControlBill(15) }

func init() {
	fit := func(target int, b Bill) float64 {
		return float64(target) / (float64(b.FF+b.LUT) / 2)
	}
	kTGStochastic = fit(PaperTGStochasticSlices, defaultTGStochastic())
	kTGTrace = fit(PaperTGTraceSlices, defaultTGTrace())
	kTRStochastic = fit(PaperTRStochasticSlices, defaultTRStochastic())
	kTRTrace = fit(PaperTRTraceSlices, defaultTRTrace())
	kControl = fit(PaperControlSlices, defaultControl())
	// The switch coefficient is fitted to the remainder of the paper's
	// 7387-slice platform after 2+2 TGs, 2+2 TRs and the control
	// module: (7387 - 2*719 - 2*652 - 2*371 - 2*690 - 218) / 6 switches.
	remainder := PaperPlatformSlices - 2*PaperTGStochasticSlices - 2*PaperTGTraceSlices -
		2*PaperTRStochasticSlices - 2*PaperTRTraceSlices - PaperControlSlices
	perSwitch := float64(remainder) / 6
	kSwitch = perSwitch / (float64(defaultSwitch().FF+defaultSwitch().LUT) / 2)
}

// Row is one device line of the synthesis report.
type Row struct {
	Device  string
	Kind    string
	Bill    Bill
	Slices  int
	Percent float64 // of the target device
}

// Report is the platform synthesis estimate — the reproduction of the
// paper's Table 1.
type Report struct {
	Target      TargetDevice
	Rows        []Row
	TotalSlices int
	TotalPct    float64
	// MaxFrequencyMHz is the modelled platform clock: the paper runs
	// its Virtex-II Pro platform at 50 MHz.
	MaxFrequencyMHz float64
}

// EstimateSwitch returns the slice estimate for a switch of one virtual
// channel per port.
func EstimateSwitch(numIn, numOut, bufDepth int) int {
	return SwitchBill(numIn, numOut, 1, bufDepth).Slices(kSwitch)
}

// Estimate produces the synthesis report for a built platform.
func Estimate(p *platform.Platform, target TargetDevice) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("resource: nil platform")
	}
	if target.Slices <= 0 {
		return nil, fmt.Errorf("resource: target %q has no slices", target.Name)
	}
	rep := &Report{Target: target, MaxFrequencyMHz: 50}
	cfg := p.Config()
	topo := cfg.Topology

	add := func(name, kind string, b Bill, slices int) {
		rep.Rows = append(rep.Rows, Row{
			Device: name, Kind: kind, Bill: b, Slices: slices,
			Percent: 100 * float64(slices) / float64(target.Slices),
		})
		rep.TotalSlices += slices
	}

	for _, spec := range cfg.TGs {
		tg, _ := p.TG(spec.Endpoint)
		if _, replay := spec.Gen.(*traffic.TraceConfig); replay {
			b := TGTraceBill(5, spec.QueueFlits)
			add(tg.ComponentName(), "TG trace driven", b, b.Slices(kTGTrace))
		} else {
			b := TGStochasticBill(4, 5, spec.QueueFlits)
			add(tg.ComponentName(), "TG stochastic", b, b.Slices(kTGStochastic))
		}
	}
	for _, spec := range cfg.TRs {
		tr, _ := p.TR(spec.Endpoint)
		if spec.Mode == receptor.TraceDriven {
			bins := spec.LatBins
			if bins == 0 {
				bins = 64
			}
			b := TRTraceBill(bins, 4)
			add(tr.ComponentName(), "TR trace driven", b, b.Slices(kTRTrace))
		} else {
			sb, gb := spec.SizeBins, spec.GapBins
			if sb == 0 {
				sb = 32
			}
			if gb == 0 {
				gb = 32
			}
			b := TRStochasticBill(sb, gb, 4)
			add(tr.ComponentName(), "TR stochastic", b, b.Slices(kTRStochastic))
		}
	}
	for s, sw := range p.Switches() {
		numIn := len(topo.SwitchInputs(sw.Node()))
		numOut := len(topo.SwitchOutputs(sw.Node()))
		b := SwitchBill(numIn, numOut, topo.NumVC(), cfg.SwitchBufDepth)
		add(fmt.Sprintf("sw%d", s), "switch", b, b.Slices(kSwitch))
	}
	nDevices := len(cfg.TGs) + len(cfg.TRs) + topo.NumSwitches() + 1
	cb := ControlBill(nDevices)
	add("ctl", "control module", cb, cb.Slices(kControl))

	rep.TotalPct = 100 * float64(rep.TotalSlices) / float64(target.Slices)
	return rep, nil
}

// Fits reports whether the platform fits the target device.
func (r *Report) Fits() bool { return r.TotalSlices <= r.Target.Slices }
