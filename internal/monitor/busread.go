package monitor

import (
	"fmt"
	"math"

	"nocemu/internal/bus"
	"nocemu/internal/control"
	"nocemu/internal/platform"
	"nocemu/internal/regmap"
	"nocemu/internal/traffic"
)

// Dev addresses one device on the internal buses. Every statistic
// the monitor and the co-simulation service (internal/serve) report
// flows through these four accessors — both are pure bus masters,
// exactly like the paper's host PC behind the platform's communication
// interface.
type Dev struct {
	sys      *bus.System
	bus, dev uint32
	Name     string
}

// Read reads one 32-bit register.
func (d Dev) Read(reg uint32) (uint32, error) {
	return d.sys.Read(bus.MakeAddr(d.bus, d.dev, reg))
}

// Read64 reads a lo/hi register pair.
func (d Dev) Read64(reg uint32) (uint64, error) {
	return d.sys.Read64(bus.MakeAddr(d.bus, d.dev, reg))
}

// ReadF64 reads a float64 result register (IEEE-754 bits as a lo/hi
// pair) — the lossless path for analyzer results.
func (d Dev) ReadF64(reg uint32) (float64, error) {
	v, err := d.Read64(reg)
	return math.Float64frombits(v), err
}

// Write writes one 32-bit register.
func (d Dev) Write(reg, v uint32) error {
	return d.sys.Write(bus.MakeAddr(d.bus, d.dev, reg), v)
}

// BusView is a bus master's picture of a platform, discovered purely by
// walking the bus attachments and classifying each device by its TYPE
// register. Slices keep bus order: TG/TR/switch devices are attached in
// spec/topology order, so rows line up with the platform's.
type BusView struct {
	Ctrl     Dev
	TGs      []Dev
	TRs      []Dev
	Switches []Dev
	// Links is the one device of every inter-switch link; LINK_SEL picks
	// a link by topology index.
	Links  Dev
	Probes []Dev
}

// ScanBus classifies every attached device by TYPE.
func ScanBus(sys *bus.System) (*BusView, error) {
	v := &BusView{}
	haveCtrl := false
	for _, at := range sys.Attachments() {
		d := Dev{sys: sys, bus: at.Bus, dev: at.Dev, Name: at.Device.DeviceName()}
		typ, err := d.Read(regmap.RegType)
		if err != nil {
			return nil, fmt.Errorf("monitor: classify %s: %w", d.Name, err)
		}
		switch typ {
		case regmap.TypeControl:
			v.Ctrl = d
			haveCtrl = true
		case regmap.TypeTG:
			v.TGs = append(v.TGs, d)
		case regmap.TypeTR:
			v.TRs = append(v.TRs, d)
		case regmap.TypeSwitch:
			v.Switches = append(v.Switches, d)
		case regmap.TypeLink:
			v.Links = d
		case regmap.TypeProbe:
			v.Probes = append(v.Probes, d)
		}
	}
	if !haveCtrl {
		return nil, fmt.Errorf("monitor: no control module on the bus")
	}
	return v, nil
}

// tgRow is one generator's statistics, read over the bus.
type tgRow struct {
	name                 string
	model                string
	offered, sent, flits uint64
	stalls, backpressure uint64
}

// flowRow is one per-source latency analyzer row.
type flowRow struct {
	src       uint32
	packets   uint64
	mean, max float64
}

// trRow is one receptor's statistics, read over the bus.
type trRow struct {
	name            string
	subtype         uint32
	mode            string
	packets, flits  uint64
	runningTime     uint64
	congestion      uint64
	latMean, latMax float64
	flows           []flowRow
}

// swRow is one switch's statistics, read over the bus.
type swRow struct {
	name                    string
	flits, packets, blocked uint64
	rate                    float64
}

// linkRow is one inter-switch link's statistics, read over the bus.
type linkRow struct {
	flits uint64
	load  float64
}

func (v *BusView) readTGs() ([]tgRow, error) {
	rows := make([]tgRow, 0, len(v.TGs))
	for _, d := range v.TGs {
		r := tgRow{name: d.Name}
		sub, err := d.Read(regmap.RegSubtype)
		if err != nil {
			return nil, err
		}
		r.model = traffic.SubtypeName(sub)
		for _, c := range []struct {
			reg uint32
			dst *uint64
		}{
			{regmap.RegTGOffered, &r.offered},
			{regmap.RegTGPacketsSent, &r.sent},
			{regmap.RegTGFlitsSent, &r.flits},
			{regmap.RegTGStallCycles, &r.stalls},
			{regmap.RegTGBackpressure, &r.backpressure},
		} {
			if *c.dst, err = d.Read64(c.reg); err != nil {
				return nil, err
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func (v *BusView) readTRs() ([]trRow, error) {
	rows := make([]trRow, 0, len(v.TRs))
	for _, d := range v.TRs {
		r := trRow{name: d.Name}
		var err error
		if r.subtype, err = d.Read(regmap.RegSubtype); err != nil {
			return nil, err
		}
		r.mode = regmap.TRModeName(r.subtype)
		for _, c := range []struct {
			reg uint32
			dst *uint64
		}{
			{regmap.RegTRPackets, &r.packets},
			{regmap.RegTRFlits, &r.flits},
			{regmap.RegTRRunningTime, &r.runningTime},
			{regmap.RegTRCongestion, &r.congestion},
		} {
			if *c.dst, err = d.Read64(c.reg); err != nil {
				return nil, err
			}
		}
		if r.latMean, err = d.ReadF64(regmap.RegTRNetLatMeanF64); err != nil {
			return nil, err
		}
		if r.latMax, err = d.ReadF64(regmap.RegTRNetLatMaxF64); err != nil {
			return nil, err
		}
		count, err := d.Read(regmap.RegFlowCount)
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < count; i++ {
			if err := d.Write(regmap.RegFlowSel, i); err != nil {
				return nil, err
			}
			var f flowRow
			if f.src, err = d.Read(regmap.RegFlowSrc); err != nil {
				return nil, err
			}
			if f.packets, err = d.Read64(regmap.RegFlowPackets); err != nil {
				return nil, err
			}
			if f.mean, err = d.ReadF64(regmap.RegFlowMeanF64); err != nil {
				return nil, err
			}
			if f.max, err = d.ReadF64(regmap.RegFlowMaxF64); err != nil {
				return nil, err
			}
			r.flows = append(r.flows, f)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func (v *BusView) readSwitches() ([]swRow, error) {
	rows := make([]swRow, 0, len(v.Switches))
	for _, d := range v.Switches {
		r := swRow{name: d.Name}
		var err error
		for _, c := range []struct {
			reg uint32
			dst *uint64
		}{
			{regmap.RegSwFlitsRouted, &r.flits},
			{regmap.RegSwPacketsRouted, &r.packets},
			{regmap.RegSwBlocked, &r.blocked},
		} {
			if *c.dst, err = d.Read64(c.reg); err != nil {
				return nil, err
			}
		}
		if den := r.blocked + r.flits; den != 0 {
			r.rate = float64(r.blocked) / float64(den)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func (v *BusView) readLinks() ([]linkRow, error) {
	d := v.Links
	n, err := d.Read(regmap.RegLinkCount)
	if err != nil {
		return nil, err
	}
	rows := make([]linkRow, n)
	for i := range rows {
		if err := d.Write(regmap.RegLinkSel, uint32(i)); err != nil {
			return nil, err
		}
		if rows[i].flits, err = d.Read64(regmap.RegLinkFlits); err != nil {
			return nil, err
		}
		busy, err := d.Read64(regmap.RegLinkBusy)
		if err != nil {
			return nil, err
		}
		cycles, err := d.Read64(regmap.RegLinkCycles)
		if err != nil {
			return nil, err
		}
		if cycles != 0 {
			rows[i].load = float64(busy) / float64(cycles)
		}
	}
	return rows, nil
}

// readout is what a report shows, read over the buses: a row per TG,
// TR, switch and link, and the totals they sum to.
type readout struct {
	tgs   []tgRow
	trs   []trRow
	sws   []swRow
	links []linkRow
	tot   platform.Totals
}

// readAll scans the platform's buses and reads a report's rows and
// totals.
func readAll(p *platform.Platform) (*readout, error) {
	if p == nil {
		return nil, fmt.Errorf("monitor: nil platform")
	}
	v, err := ScanBus(p.System())
	if err != nil {
		return nil, err
	}
	r := &readout{}
	if r.tgs, err = v.readTGs(); err != nil {
		return nil, err
	}
	if r.trs, err = v.readTRs(); err != nil {
		return nil, err
	}
	if r.sws, err = v.readSwitches(); err != nil {
		return nil, err
	}
	if r.links, err = v.readLinks(); err != nil {
		return nil, err
	}
	if r.tot, err = v.totals(r.tgs, r.trs, r.sws); err != nil {
		return nil, err
	}
	return r, nil
}

// totalsFromBus reconstructs platform.Totals from the rows, replicating
// the accumulation order of Platform.Totals so the aggregate floats are
// bit-identical to the struct-sourced ones.
func (v *BusView) totals(tgs []tgRow, trs []trRow, sws []swRow) (platform.Totals, error) {
	var t platform.Totals
	cycles, err := v.Ctrl.Read64(control.RegCycleLo)
	if err != nil {
		return t, err
	}
	t.Cycles = cycles
	for _, r := range tgs {
		t.PacketsOffered += r.offered
		t.PacketsSent += r.sent
		t.FlitsSent += r.flits
	}
	var latWeighted float64
	var latPackets uint64
	for _, r := range trs {
		t.PacketsReceived += r.packets
		t.FlitsReceived += r.flits
		if r.subtype == regmap.SubtypeTraceTR && r.packets > 0 {
			latWeighted += r.latMean * float64(r.packets)
			latPackets += r.packets
			t.CongestionCycles += r.congestion
		}
	}
	if latPackets > 0 {
		t.MeanNetLatency = latWeighted / float64(latPackets)
	}
	for _, r := range sws {
		t.FlitsRouted += r.flits
		t.BlockedCycles += r.blocked
	}
	if den := t.BlockedCycles + t.FlitsRouted; den != 0 {
		t.CongestionRate = float64(t.BlockedCycles) / float64(den)
	}
	return t, nil
}

// readHist reads one receptor histogram (selected by sel) bin by bin
// over the readout window.
func readHist(d Dev, sel uint32) (binWidth uint64, bins []uint64, overflow uint64, err error) {
	if err = d.Write(regmap.RegHistSel, sel); err != nil {
		return
	}
	numBins, err := d.Read(regmap.RegHistBins)
	if err != nil {
		return
	}
	width, err := d.Read(regmap.RegHistWidth)
	if err != nil {
		return
	}
	over, err := d.Read(regmap.RegHistOver)
	if err != nil {
		return
	}
	bins = make([]uint64, numBins)
	for i := uint32(0); i < numBins; i++ {
		if err = d.Write(regmap.RegHistIdx, i); err != nil {
			return
		}
		lo, e := d.Read(regmap.RegHistData)
		if e != nil {
			err = e
			return
		}
		hi, e := d.Read(regmap.RegHistDataHi)
		if e != nil {
			err = e
			return
		}
		bins[i] = uint64(hi)<<32 | uint64(lo)
	}
	return uint64(width), bins, uint64(over), nil
}
