// Package regmap exposes the emulation devices as memory-mapped
// register banks on the internal buses — the paper's "bench of
// registers" in every TG/TR and the statistics registers the monitor
// reads out.
//
// Banks are built on the declarative schema in schema.go: each device
// constructor hands a Bank the function that declares its registers
// (name, offset, access mode, closures), run on the bank's first access,
// and the Bank supplies bus.Device dispatch, tear-free 64-bit readout and
// the metadata `nocgen regs` renders REGISTERS.md from.
//
// Common layout (12-bit register offsets):
//
//	0x000  TYPE      ro  device class (see Type* constants)
//	0x001  SUBTYPE   ro  TG model / TR mode code
//	0x002  CTRL      rw  bit0 enable (TG), bit1 reset-stats (all)
//	0x003  SEED      wo  reseed random registers (TG)
//	0x004  LIMIT_LO  rw  packet budget (TG) / expected packets (TR)
//	0x005  LIMIT_HI  rw
//	0x010+ stats     ro  64-bit counters as lo/hi pairs (see constants)
//	0x020+ params    rw  model parameters (traffic.Parameterized)
//	0x030+ histogram ro  indexed histogram readout (TR)
//	0x040+ analyzer  ro  float64 analyzer results as bit pairs (TR)
//	0x050+ flows     ro  indexed per-source latency readout (TR)
package regmap

import (
	"fmt"
	"strings"

	"nocemu/internal/receptor"
	"nocemu/internal/switchfab"
	"nocemu/internal/traffic"
)

// Device class codes (register TYPE).
const (
	TypeTG      = 1
	TypeTR      = 2
	TypeSwitch  = 3
	TypeControl = 4
	TypeLink    = 5
	TypePool    = 6
	TypeProbe   = 9
)

// Common register offsets.
const (
	RegType    = 0x000
	RegSubtype = 0x001
	RegCtrl    = 0x002
	RegSeed    = 0x003
	RegLimitLo = 0x004
	RegLimitHi = 0x005
)

// CTRL bits.
const (
	CtrlEnable     = 1 << 0
	CtrlResetStats = 1 << 1
)

// TG statistics registers (64-bit lo/hi pairs).
const (
	RegTGOffered      = 0x010 // packets created by the generator
	RegTGPacketsSent  = 0x012
	RegTGFlitsSent    = 0x014
	RegTGStallCycles  = 0x016
	RegTGBackpressure = 0x018
)

// TG model parameter window.
const (
	RegParamBase = 0x020
	NumParamRegs = 0x010
)

// TR statistics registers.
const (
	RegTRPackets     = 0x010
	RegTRFlits       = 0x012
	RegTRRunningTime = 0x014
	RegTRCongestion  = 0x016
	// Latency registers are Q8 fixed point (value << 8) where noted.
	RegTRNetLatMeanQ8 = 0x018
	RegTRNetLatMin    = 0x019
	RegTRNetLatMax    = 0x01A
	RegTRNetLatStdQ8  = 0x01B
	RegTRTotLatMeanQ8 = 0x01C
	// RegTRNetLatP95 is the 95th-percentile latency bound (cycles).
	RegTRNetLatP95 = 0x01D
)

// TR histogram readout registers.
const (
	RegHistSel    = 0x030 // 0 = size, 1 = gap, 2 = latency
	RegHistIdx    = 0x031
	RegHistData   = 0x032 // ro: selected histogram bin[idx], low word
	RegHistBins   = 0x033 // ro: number of bins
	RegHistWidth  = 0x034 // ro: bin width
	RegHistOver   = 0x035 // ro: overflow count
	RegHistDataHi = 0x036 // ro: selected histogram bin[idx], high word
)

// Histogram selector values.
const (
	HistSize = 0
	HistGap  = 1
	HistLat  = 2
)

// TR analyzer registers: float64 results carried bit-exactly as lo/hi
// IEEE-754 bit pairs (the monitor's lossless data path).
const (
	RegTRNetLatMeanF64 = 0x040
	RegTRNetLatMinF64  = 0x042
	RegTRNetLatMaxF64  = 0x044
	RegTRNetLatStdF64  = 0x046
	RegTRTotLatMeanF64 = 0x048
)

// TR per-source (flow) latency readout registers.
const (
	RegFlowSel     = 0x050 // rw: flow index (sorted by source endpoint)
	RegFlowCount   = 0x051 // ro: number of flows observed
	RegFlowSrc     = 0x052 // ro: selected flow's source endpoint
	RegFlowPackets = 0x053 // ro 64-bit: selected flow's packets
	RegFlowMeanF64 = 0x056 // ro: selected flow's mean latency
	RegFlowMaxF64  = 0x058 // ro: selected flow's max latency
	RegFlowLast    = 0x05A // ro 64-bit: selected flow's last packet latency (TrackLast)
)

// Switch statistics registers.
const (
	RegSwFlitsRouted   = 0x010
	RegSwPacketsRouted = 0x012
	RegSwBlocked       = 0x014
	RegSwCycles        = 0x016
	// RegSwOccupancy is the committed buffered-flit count across the
	// switch's input FIFOs — the occupancy window a co-simulation
	// client polls for backpressure.
	RegSwOccupancy = 0x018
)

// TR mode subtype codes.
const (
	SubtypeStochastic = 1
	SubtypeTraceTR    = 2
)

// TRModeName maps a TR SUBTYPE code back to the receptor mode name.
func TRModeName(subtype uint32) string {
	switch subtype {
	case SubtypeStochastic:
		return string(receptor.Stochastic)
	case SubtypeTraceTR:
		return string(receptor.TraceDriven)
	}
	return fmt.Sprintf("mode(%d)", subtype)
}

func q8(v float64) uint32 {
	if v < 0 {
		return 0
	}
	return uint32(v * 256)
}

// errBadReg builds the uniform unknown-register error.
func errBadReg(op string, reg uint32) error {
	return fmt.Errorf("regmap: %s of unmapped register 0x%03x", op, reg)
}

// modelCodesDoc is the TG SUBTYPE register's doc line: the codes of the
// traffic-model table ("1 uniform, 2 burst, ...").
var modelCodesDoc = func() string {
	var codes []string
	for _, m := range traffic.Models() {
		codes = append(codes, fmt.Sprintf("%d %s", m.Subtype, m.Name))
	}
	return strings.Join(codes, ", ") + " (a scripted overlay reports the model it wraps)"
}()

// NewTGDevice builds the register bank of a traffic generator.
func NewTGDevice(tg *traffic.TG) *Bank {
	return Lazy(tg.ComponentName(), func(b *Bank) {
		b.Describe("Traffic generator (TYPE = 1)",
			"Model parameter windows are model-specific; see the parameter tables below. "+
				"Writes that would break a model invariant (e.g. `len_min > len_max`) are "+
				"rejected with a bus error; write order matters.")
		// The LIMIT halves are bank-local staging registers: the 64-bit
		// budget reaches the TG on each half's write.
		var limitLo, limitHi uint32

		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeTG })
		b.RO(RegSubtype, "SUBTYPE", modelCodesDoc,
			func() uint32 { return traffic.Subtype(tg.Generator()) })
		b.RW(RegCtrl, "CTRL", "bit0 enable, bit1 reset-stats",
			func() uint32 {
				if tg.Enabled() {
					return CtrlEnable
				}
				return 0
			},
			func(v uint32) error {
				tg.SetEnabled(v&CtrlEnable != 0)
				if v&CtrlResetStats != 0 {
					tg.ResetStats()
				}
				return nil
			})
		b.WO(RegSeed, "SEED", "reseed the random-initialization registers",
			func(v uint32) error { tg.Reseed(v); return nil })
		b.RW(RegLimitLo, "LIMIT_LO", "packet budget, low word (0 = unlimited)",
			func() uint32 { return limitLo },
			func(v uint32) error {
				limitLo = v
				tg.SetLimit(uint64(limitHi)<<32 | uint64(limitLo))
				return nil
			})
		b.RW(RegLimitHi, "LIMIT_HI", "packet budget, high word",
			func() uint32 { return limitHi },
			func(v uint32) error {
				limitHi = v
				tg.SetLimit(uint64(limitHi)<<32 | uint64(limitLo))
				return nil
			})
		b.RO64(RegTGOffered, "OFFERED", "packets created by the generator",
			func() uint64 { return tg.Stats().Offered })
		b.RO64(RegTGPacketsSent, "PKTS_SENT", "packets fully injected",
			func() uint64 { return tg.Stats().Injector.PacketsSent })
		b.RO64(RegTGFlitsSent, "FLITS_SENT", "flits injected",
			func() uint64 { return tg.Stats().Injector.FlitsSent })
		b.RO64(RegTGStallCycles, "STALL", "injector stall cycles (no credit / busy wire)",
			func() uint64 { return tg.Stats().Injector.StallCycles })
		b.RO64(RegTGBackpressure, "BACKPRESSURE", "cycles a demand waited for queue space",
			func() uint64 { return tg.Stats().BackpressureCycles })
		b.Window(RegParamBase, NumParamRegs, "PARAM", RW,
			"model parameters, index-aligned with the model's parameter table",
			func(i uint32) (uint32, error) {
				if p, ok := traffic.Params(tg.Generator()); ok {
					if v, ok := p.ReadParam(i); ok {
						return v, nil
					}
				}
				return 0, errBadReg("read", RegParamBase+i)
			},
			func(i, v uint32) error {
				p, ok := traffic.Params(tg.Generator())
				if !ok {
					return fmt.Errorf("regmap: %s has no parameter registers", b.DeviceName())
				}
				if !p.WriteParam(i, v) {
					return fmt.Errorf("regmap: %s rejected parameter 0x%03x = %d", b.DeviceName(), RegParamBase+i, v)
				}
				return nil
			})
	})
}

// NewTRDevice builds the register bank of a traffic receptor.
func NewTRDevice(tr *receptor.TR) *Bank {
	return Lazy(tr.ComponentName(), func(b *Bank) {
		b.Describe("Traffic receptor (TYPE = 2)",
			"Latency registers carry data in trace mode; size/gap histograms exist in "+
				"stochastic mode. Reading an absent histogram or an out-of-range bin or "+
				"flow index is a bus error.")
		var expectLo, expectHi uint32
		var histSel, histIdx uint32

		hist := func() (h interface {
			NumBins() int
			BinWidth() uint64
			Overflow() uint64
			Bin(int) uint64
		}, err error) {
			switch histSel {
			case HistSize:
				if tr.SizeHist() != nil {
					return tr.SizeHist(), nil
				}
			case HistGap:
				if tr.GapHist() != nil {
					return tr.GapHist(), nil
				}
			case HistLat:
				if tr.LatHist() != nil {
					return tr.LatHist(), nil
				}
			}
			return nil, fmt.Errorf("regmap: %s has no histogram %d", b.DeviceName(), histSel)
		}
		// bin returns the selected histogram bin, validating the index
		// against the bin count (out-of-range reads are bus errors, not
		// silent zeros).
		bin := func() (uint64, error) {
			h, err := hist()
			if err != nil {
				return 0, err
			}
			if int(histIdx) >= h.NumBins() {
				return 0, fmt.Errorf("regmap: %s histogram bin %d out of range (bins %d)",
					b.DeviceName(), histIdx, h.NumBins())
			}
			return h.Bin(int(histIdx)), nil
		}
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeTR })
		b.RO(RegSubtype, "SUBTYPE", "1 stochastic, 2 trace-driven",
			func() uint32 {
				if tr.Mode() == receptor.Stochastic {
					return SubtypeStochastic
				}
				return SubtypeTraceTR
			})
		b.RW(RegCtrl, "CTRL", "bit1 reset-stats",
			func() uint32 { return 0 },
			func(v uint32) error {
				if v&CtrlResetStats != 0 {
					tr.ResetStats()
				}
				return nil
			})
		b.RW(RegLimitLo, "EXPECT_LO", "packets after which the TR reports done, low word",
			func() uint32 { return expectLo },
			func(v uint32) error {
				expectLo = v
				tr.SetExpect(uint64(expectHi)<<32 | uint64(expectLo))
				return nil
			})
		b.RW(RegLimitHi, "EXPECT_HI", "expected packet count, high word",
			func() uint32 { return expectHi },
			func(v uint32) error {
				expectHi = v
				tr.SetExpect(uint64(expectHi)<<32 | uint64(expectLo))
				return nil
			})
		b.RO64(RegTRPackets, "PACKETS", "packets received",
			tr.Packets)
		b.RO64(RegTRFlits, "FLITS", "flits received",
			tr.Flits)
		b.RO64(RegTRRunningTime, "RUN_TIME", "total running time (first to last flit)",
			tr.RunningTime)
		b.RO64(RegTRCongestion, "CONGESTION", "congestion counter (excess latency cycles)",
			tr.CongestionCycles)
		b.RO(RegTRNetLatMeanQ8, "LAT_MEAN", "mean network latency, Q8 fixed point",
			func() uint32 { return q8(tr.NetLatency().Mean()) })
		b.RO(RegTRNetLatMin, "LAT_MIN", "min network latency (cycles)",
			func() uint32 { return uint32(tr.NetLatency().Min()) })
		b.RO(RegTRNetLatMax, "LAT_MAX", "max network latency (cycles)",
			func() uint32 { return uint32(tr.NetLatency().Max()) })
		b.RO(RegTRNetLatStdQ8, "LAT_STD", "latency std deviation, Q8",
			func() uint32 { return q8(tr.NetLatency().Std()) })
		b.RO(RegTRTotLatMeanQ8, "TLAT_MEAN", "mean total (birth to delivery) latency, Q8",
			func() uint32 { return q8(tr.TotLatency().Mean()) })
		b.RO(RegTRNetLatP95, "LAT_P95", "95th-percentile latency bound from the histogram (cycles)",
			func() uint32 { return uint32(tr.NetLatencyP95()) })

		b.RW(RegHistSel, "HIST_SEL", "0 = sizes, 1 = inter-arrival gaps, 2 = latency",
			func() uint32 { return histSel },
			func(v uint32) error {
				if v > HistLat {
					return fmt.Errorf("regmap: %s histogram selector %d", b.DeviceName(), v)
				}
				histSel = v
				return nil
			})
		b.RW(RegHistIdx, "HIST_IDX", "bin index for HIST_DATA",
			func() uint32 { return histIdx },
			func(v uint32) error { histIdx = v; return nil })
		b.ROErr(RegHistData, "HIST_DATA", "selected histogram bin count, low word",
			func() (uint32, error) {
				v, err := bin()
				return uint32(v), err
			})
		b.ROErr(RegHistBins, "HIST_BINS", "number of bins",
			func() (uint32, error) {
				h, err := hist()
				if err != nil {
					return 0, err
				}
				return uint32(h.NumBins()), nil
			})
		b.ROErr(RegHistWidth, "HIST_WIDTH", "bin width",
			func() (uint32, error) {
				h, err := hist()
				if err != nil {
					return 0, err
				}
				return uint32(h.BinWidth()), nil
			})
		b.ROErr(RegHistOver, "HIST_OVER", "overflow count",
			func() (uint32, error) {
				h, err := hist()
				if err != nil {
					return 0, err
				}
				return uint32(h.Overflow()), nil
			})
		b.ROErr(RegHistDataHi, "HIST_DATA_HI", "selected histogram bin count, high word",
			func() (uint32, error) {
				v, err := bin()
				return uint32(v >> 32), err
			})

		b.F64(RegTRNetLatMeanF64, "LAT_MEAN_F64", "mean network latency",
			tr.NetLatency().Mean)
		b.F64(RegTRNetLatMinF64, "LAT_MIN_F64", "min network latency",
			tr.NetLatency().Min)
		b.F64(RegTRNetLatMaxF64, "LAT_MAX_F64", "max network latency",
			tr.NetLatency().Max)
		b.F64(RegTRNetLatStdF64, "LAT_STD_F64", "latency std deviation",
			tr.NetLatency().Std)
		b.F64(RegTRTotLatMeanF64, "TLAT_MEAN_F64", "mean total latency",
			tr.TotLatency().Mean)

		flow := Select(b, RegFlowSel, "FLOW_SEL", "flow index, ordered by source endpoint", tr.Flow)
		b.RO(RegFlowCount, "FLOW_COUNT", "number of flows the latency analyzer observed",
			func() uint32 { return uint32(tr.Flows()) })
		b.ROErr(RegFlowSrc, "FLOW_SRC", "selected flow's source endpoint",
			Of(flow, func(fl receptor.SourceLatency) uint32 { return uint32(fl.Src) }))
		b.RO64Err(RegFlowPackets, "FLOW_PACKETS", "selected flow's packet count",
			Of(flow, func(fl receptor.SourceLatency) uint64 { return fl.Packets }))
		b.F64Err(RegFlowMeanF64, "FLOW_MEAN_F64", "selected flow's mean network latency",
			Of(flow, func(fl receptor.SourceLatency) float64 { return fl.Mean }))
		b.F64Err(RegFlowMaxF64, "FLOW_MAX_F64", "selected flow's max network latency",
			Of(flow, func(fl receptor.SourceLatency) float64 { return fl.Max }))
		b.RO64Err(RegFlowLast, "FLOW_LAST", "selected flow's most recent packet latency (0 unless TrackLast)",
			Of(flow, func(fl receptor.SourceLatency) uint64 { return fl.Last }))
	})
}

// NewSwitchDevice builds the register bank of a switch.
func NewSwitchDevice(sw *switchfab.Switch) *Bank {
	return Lazy(sw.ComponentName(), func(b *Bank) {
		b.Describe("Switch (TYPE = 3)", "")
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeSwitch })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RW(RegCtrl, "CTRL", "bit1 reset-stats",
			func() uint32 { return 0 },
			func(v uint32) error {
				if v&CtrlResetStats != 0 {
					sw.ResetStats()
				}
				return nil
			})
		b.RO64(RegSwFlitsRouted, "FLITS", "flits routed",
			func() uint64 { return sw.Stats().FlitsRouted })
		b.RO64(RegSwPacketsRouted, "PACKETS", "packets routed (tails forwarded)",
			func() uint64 { return sw.Stats().PacketsRouted })
		b.RO64(RegSwBlocked, "BLOCKED", "blocked head-flit cycles (congestion)",
			func() uint64 { return sw.Stats().BlockedCycles })
		b.RO64(RegSwCycles, "CYCLES", "committed cycles",
			func() uint64 { return sw.Stats().Cycles })
		b.RO64(RegSwOccupancy, "OCCUPANCY", "flits buffered in the input FIFOs (committed)",
			func() uint64 { return uint64(sw.BufferedFlits()) })
	})
}
