package regmap

import (
	"nocemu/internal/probe"
)

// Probe (trace-metrics) register offsets. The indexed counters follow
// the pool bank's SEL idiom: software writes a selector register, then
// reads the matching 64-bit counter.
const (
	RegProbeRings    = 0x004 // ro: event rings registered
	RegProbeWinSize  = 0x005 // ro: sampling window in cycles
	RegProbeWinCount = 0x006 // ro: windows recorded so far
	RegProbeNumVCs   = 0x007 // ro: per-VC stall counters recorded
	RegProbeKindSel  = 0x008 // rw: event-kind selector for KIND_COUNT
	RegProbeVCSel    = 0x009 // rw: VC selector for VC_STALLS
	RegProbeWinSel   = 0x00A // rw: window selector for the WIN_* bank

	RegProbeEvents    = 0x010 // ro 64-bit: events collected
	RegProbeDropped   = 0x012 // ro 64-bit: events lost to ring overflow
	RegProbeKindCount = 0x014 // ro 64-bit: events of the selected kind
	RegProbeVCStalls  = 0x016 // ro 64-bit: stalls on the selected VC

	RegProbeWinInject = 0x020 // ro 64-bit: injects in the selected window
	RegProbeWinEject  = 0x022 // ro 64-bit: ejects in the selected window
	RegProbeWinRoute  = 0x024 // ro 64-bit: routes in the selected window
	RegProbeWinDrop   = 0x026 // ro 64-bit: drops in the selected window
	RegProbeWinStall  = 0x028 // ro 64-bit: credit stalls in the selected window
	RegProbeWinOcc    = 0x02A // ro 64-bit: buffered flits at the window boundary
	RegProbeWinBusy   = 0x02C // ro 64-bit: link-busy cycles inside the window
)

// NewProbeDevice builds the register bank of the trace collector: the
// time-series metrics store the monitor pulls over the bus. Like every
// statistics bank, it is read while the emulation is quiesced.
func NewProbeDevice(c *probe.Collector) *Bank {
	return Lazy("probe", func(b *Bank) {
		b.Describe("Trace metrics (TYPE = 9)",
			"Cycle-sampled metrics from the event-tracing collector. WIN_SEL "+
				"addresses one sampling window; WIN_OCC and WIN_BUSY derive from "+
				"boundary samples of buffer occupancy and link busy-cycles, so "+
				"they are exact regardless of quiescence fast-forwarding.")
		var kindSel, vcSel, winSel uint32
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeProbe })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RW(RegCtrl, "CTRL", "bit1 reset-stats",
			func() uint32 { return 0 },
			func(v uint32) error {
				if v&CtrlResetStats != 0 {
					c.ResetStats()
				}
				return nil
			})
		b.RO(RegProbeRings, "RINGS", "event rings registered",
			func() uint32 { return uint32(c.NumRings()) })
		b.RO(RegProbeWinSize, "WIN_SIZE", "sampling window in cycles",
			func() uint32 { return uint32(c.WindowSize()) })
		b.RO(RegProbeWinCount, "WIN_COUNT", "windows recorded so far",
			func() uint32 { return uint32(c.WindowCount()) })
		b.RO(RegProbeNumVCs, "NUM_VCS", "per-VC stall counters recorded",
			func() uint32 { return uint32(c.NumVCs()) })
		b.RW(RegProbeKindSel, "KIND_SEL", "event-kind code for KIND_COUNT",
			func() uint32 { return kindSel },
			func(v uint32) error { kindSel = v; return nil })
		b.RW(RegProbeVCSel, "VC_SEL", "virtual channel for VC_STALLS",
			func() uint32 { return vcSel },
			func(v uint32) error { vcSel = v; return nil })
		b.RW(RegProbeWinSel, "WIN_SEL", "window index for the WIN_* bank",
			func() uint32 { return winSel },
			func(v uint32) error { winSel = v; return nil })
		b.RO64(RegProbeEvents, "EVENTS", "events collected", c.Total)
		b.RO64(RegProbeDropped, "DROPPED", "events lost to ring overflow", c.Dropped)
		b.RO64(RegProbeKindCount, "KIND_COUNT", "events of the selected kind",
			func() uint64 { return c.KindCount(probe.Kind(kindSel)) })
		b.RO64(RegProbeVCStalls, "VC_STALLS", "credit stalls on the selected VC",
			func() uint64 { return c.VCStalls(int(vcSel)) })
		win := func(pick func(probe.WindowTally) uint64) func() uint64 {
			return func() uint64 {
				t, ok := c.WindowCounts(int(winSel))
				if !ok {
					return 0
				}
				return pick(t)
			}
		}
		b.RO64(RegProbeWinInject, "WIN_INJECT", "injects in the selected window",
			win(func(t probe.WindowTally) uint64 { return t.Inject }))
		b.RO64(RegProbeWinEject, "WIN_EJECT", "ejects in the selected window",
			win(func(t probe.WindowTally) uint64 { return t.Eject }))
		b.RO64(RegProbeWinRoute, "WIN_ROUTE", "routes in the selected window",
			win(func(t probe.WindowTally) uint64 { return t.Route }))
		b.RO64(RegProbeWinDrop, "WIN_DROP", "drops in the selected window",
			win(func(t probe.WindowTally) uint64 { return t.Drop }))
		b.RO64(RegProbeWinStall, "WIN_STALL", "credit stalls in the selected window",
			win(func(t probe.WindowTally) uint64 { return t.Stall }))
		b.RO64(RegProbeWinOcc, "WIN_OCC", "buffered flits at the window boundary",
			func() uint64 { return c.WindowOcc(int(winSel)) })
		b.RO64(RegProbeWinBusy, "WIN_BUSY", "link-busy cycles inside the window",
			func() uint64 { return c.WindowBusy(int(winSel)) })
	})
}
