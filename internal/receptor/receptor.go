// Package receptor implements the paper's traffic receptors.
//
// Two flavors, as in the paper's "statistics reports and analysis":
//
//   - stochastic receptors build histograms "which show an image of the
//     received traffic" (packet sizes, inter-arrival gaps) and record
//     the total running time;
//   - trace-driven receptors run a latency analyzer and a congestion
//     counter.
//
// A TR is an engine component wrapping a nic.Ejector; its statistics
// registers are exposed over the bus via internal/regmap.
package receptor

import (
	"fmt"
	"slices"
	"sort"

	"nocemu/internal/flit"
	"nocemu/internal/nic"
	"nocemu/internal/probe"
	"nocemu/internal/stats"
	"nocemu/internal/trace"
)

// Mode selects the receptor flavor.
type Mode string

const (
	// Stochastic receptors histogram the received traffic.
	Stochastic Mode = "stochastic"
	// TraceDriven receptors analyze latency and congestion.
	TraceDriven Mode = "trace"
)

// Config parameterizes a traffic receptor.
type Config struct {
	// Name is the engine component name.
	Name string
	// Endpoint is this receptor's address in the network.
	Endpoint flit.EndpointID
	// Mode selects stochastic or trace-driven analysis.
	Mode Mode
	// ExpectPackets makes Done() true after that many packets
	// (0 = never done; the run is then bounded by cycles).
	ExpectPackets uint64

	// SizeBinWidth/SizeBins shape the packet-size histogram
	// (stochastic mode; defaults 1 flit x 32 bins).
	SizeBinWidth uint64
	SizeBins     int
	// GapBinWidth/GapBins shape the inter-arrival histogram
	// (stochastic mode; defaults 8 cycles x 32 bins).
	GapBinWidth uint64
	GapBins     int
	// LatBinWidth/LatBins shape the latency histogram (trace mode;
	// defaults 8 cycles x 64 bins).
	LatBinWidth uint64
	LatBins     int
	// RecordTrace makes the receptor record every received packet as a
	// trace record (cycle, this endpoint, length) — the platform's
	// trace-recording path: traffic observed at a receptor can be
	// replayed later by a trace-driven generator.
	RecordTrace bool
	// TrackLast makes the trace-driven latency analyzer additionally
	// remember each source's most recent network latency, served over
	// the bus as FLOW_LAST — the per-request answer a co-simulation
	// session reads after injecting a scripted packet. Off by default:
	// the extra section joins the snapshot layout only when enabled, so
	// existing snapshots are unaffected.
	TrackLast bool
}

func (c *Config) applyDefaults() {
	if c.SizeBinWidth == 0 {
		c.SizeBinWidth = 1
	}
	if c.SizeBins == 0 {
		c.SizeBins = 32
	}
	if c.GapBinWidth == 0 {
		c.GapBinWidth = 8
	}
	if c.GapBins == 0 {
		c.GapBins = 32
	}
	if c.LatBinWidth == 0 {
		c.LatBinWidth = 8
	}
	if c.LatBins == 0 {
		c.LatBins = 64
	}
}

// TR is a traffic-receptor device.
type TR struct {
	cfg Config
	ej  *nic.Ejector

	packets uint64
	flits   uint64

	firstCycle uint64
	lastCycle  uint64
	sawFirst   bool

	// Stochastic analysis.
	sizeHist *stats.Histogram
	gapHist  *stats.Histogram
	lastPkt  uint64
	sawPkt   bool

	// Trace-driven analysis.
	latHist    *stats.Histogram
	netLat     stats.Welford
	totLat     stats.Welford
	headInject map[flit.PacketID]uint64
	flows      []flowRow // one per source heard from, sorted by source
	congestion uint64    // accumulated excess cycles over per-source best

	recorded *trace.Trace
}

// New builds a receptor around an ejector.
func New(cfg Config, ej *nic.Ejector) (*TR, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("receptor: empty name")
	}
	if ej == nil {
		return nil, fmt.Errorf("receptor %s: nil ejector", cfg.Name)
	}
	if ej.Endpoint() != cfg.Endpoint {
		return nil, fmt.Errorf("receptor %s: ejector endpoint %d != %d", cfg.Name, ej.Endpoint(), cfg.Endpoint)
	}
	if cfg.Mode != Stochastic && cfg.Mode != TraceDriven {
		return nil, fmt.Errorf("receptor %s: unknown mode %q", cfg.Name, cfg.Mode)
	}
	cfg.applyDefaults()
	tr := &TR{cfg: cfg, ej: ej}
	if cfg.RecordTrace {
		tr.recorded = &trace.Trace{Name: cfg.Name}
	}
	switch cfg.Mode {
	case Stochastic:
		tr.sizeHist = stats.MustNewHistogram(cfg.SizeBinWidth, cfg.SizeBins)
		tr.gapHist = stats.MustNewHistogram(cfg.GapBinWidth, cfg.GapBins)
	case TraceDriven:
		tr.latHist = stats.MustNewHistogram(cfg.LatBinWidth, cfg.LatBins)
		tr.headInject = make(map[flit.PacketID]uint64)
	}
	return tr, nil
}

// ComponentName implements engine.Component.
func (t *TR) ComponentName() string { return t.cfg.Name }

// Endpoint returns the receptor's network address.
func (t *TR) Endpoint() flit.EndpointID { return t.cfg.Endpoint }

// Mode returns the receptor flavor.
func (t *TR) Mode() Mode { return t.cfg.Mode }

// Ejector returns the network interface (for platform wiring).
func (t *TR) Ejector() *nic.Ejector { return t.ej }

// SetProbe attaches the tracing probe to the network interface (nil
// disables tracing).
func (t *TR) SetProbe(p *probe.Probe) { t.ej.SetProbe(p) }

// SetExpect changes the completion threshold between runs.
func (t *TR) SetExpect(n uint64) { t.cfg.ExpectPackets = n }

// Tick implements engine.Component.
func (t *TR) Tick(cycle uint64) {
	t.ej.Pump(cycle, func(f *flit.Flit) {
		t.flits++
		if !t.sawFirst {
			t.firstCycle, t.sawFirst = cycle, true
		}
		t.lastCycle = cycle
		if t.headInject != nil && f.Kind.IsHead() {
			t.headInject[f.Packet] = f.InjectCycle
		}
	}, func(p *flit.Packet, last *flit.Flit) {
		t.packets++
		if t.recorded != nil {
			t.recorded.Records = append(t.recorded.Records, trace.Record{
				Cycle: cycle, Dst: t.cfg.Endpoint, Len: p.Len,
			})
		}
		switch t.cfg.Mode {
		case Stochastic:
			t.sizeHist.Add(uint64(p.Len))
			if t.sawPkt {
				t.gapHist.Add(cycle - t.lastPkt)
			}
			t.lastPkt, t.sawPkt = cycle, true
		case TraceDriven:
			inject, ok := t.headInject[p.ID]
			if !ok {
				inject = last.InjectCycle
			}
			delete(t.headInject, p.ID)
			net := cycle - inject
			t.latHist.Add(net)
			t.netLat.Add(float64(net))
			t.totLat.Add(float64(cycle - p.BirthCycle))
			f := t.flow(p.Src)
			f.lat.Add(float64(net))
			if t.cfg.TrackLast {
				f.last = net
			}
			f.min = min(f.min, net)
			t.congestion += net - f.min
		}
	})
}

// Commit implements engine.Component; the kernel never calls it.
func (t *TR) Commit(uint64) {}

// NextWake implements engine.Quiescable. Every receptor statistic is
// arrival-driven, so the TR is quiet exactly when its ejector is idle;
// it is woken by the upstream switch sending a flit onto its input
// wire. Done is monotonic and cannot change without an arrival.
func (t *TR) NextWake(cycle uint64) (uint64, bool) {
	return ^uint64(0), t.ej.Idle(cycle)
}

// SkipIdle implements engine.Quiescable: only the ejector buffer's
// occupancy statistics advance per quiet cycle.
func (t *TR) SkipIdle(from, n uint64) { t.ej.SkipIdle(n) }

// Done implements engine.Stopper.
func (t *TR) Done() bool {
	return t.cfg.ExpectPackets > 0 && t.packets >= t.cfg.ExpectPackets
}

// Stats is a receptor's statistics snapshot.
type Stats struct {
	Mode    Mode
	Packets uint64
	Flits   uint64
	// RunningTime is the cycle span from first to last received flit
	// (the stochastic receptor's "total running time").
	RunningTime uint64

	// MeanSize and MeanGap summarize the stochastic histograms.
	MeanSize float64
	MeanGap  float64

	// Latency analyzer results (trace mode), in cycles.
	NetLatencyMean float64
	NetLatencyMin  float64
	NetLatencyMax  float64
	NetLatencyStd  float64
	// NetLatencyP95 is an upper bound on the 95th-percentile latency,
	// read from the latency histogram's bin boundaries.
	NetLatencyP95  uint64
	TotLatencyMean float64
	// CongestionCycles is the congestion counter: accumulated latency
	// in excess of the per-source minimum.
	CongestionCycles uint64
	// CongestionPerPacket is CongestionCycles / Packets.
	CongestionPerPacket float64
	// CorruptedFlits counts integrity-check failures at the network
	// interface (nonzero only under fault injection).
	CorruptedFlits uint64
}

// Stats returns the current snapshot. The latency fields read zero in
// stochastic mode: the analyzer never runs there.
func (t *TR) Stats() Stats {
	s := Stats{
		Mode: t.cfg.Mode, Packets: t.packets, Flits: t.flits, RunningTime: t.RunningTime(),
		NetLatencyMean: t.netLat.Mean(), NetLatencyMin: t.netLat.Min(), NetLatencyMax: t.netLat.Max(),
		NetLatencyStd: t.netLat.Std(), NetLatencyP95: t.NetLatencyP95(), TotLatencyMean: t.totLat.Mean(),
		CongestionCycles: t.congestion, CorruptedFlits: t.ej.CorruptedFlits(),
	}
	if t.cfg.Mode == Stochastic {
		s.MeanSize, s.MeanGap = t.sizeHist.Mean(), t.gapHist.Mean()
	}
	if t.packets > 0 {
		s.CongestionPerPacket = float64(t.congestion) / float64(t.packets)
	}
	return s
}

// The accessors below are Stats fields one at a time, for a reader (a
// register) that wants one value without computing the others.

// Packets returns the packets received.
func (t *TR) Packets() uint64 { return t.packets }

// Flits returns the flits received.
func (t *TR) Flits() uint64 { return t.flits }

// RunningTime returns the cycle span from first to last received flit.
func (t *TR) RunningTime() uint64 {
	if !t.sawFirst {
		return 0
	}
	return t.lastCycle - t.firstCycle + 1
}

// CongestionCycles returns the congestion counter.
func (t *TR) CongestionCycles() uint64 { return t.congestion }

// NetLatency returns the network-latency accumulator; read-only.
func (t *TR) NetLatency() *stats.Welford { return &t.netLat }

// TotLatency returns the birth-to-delivery latency accumulator; read-only.
func (t *TR) TotLatency() *stats.Welford { return &t.totLat }

// NetLatencyP95 returns the 95th-percentile latency bound from the
// latency histogram.
func (t *TR) NetLatencyP95() uint64 {
	if t.latHist == nil {
		return 0
	}
	return t.latHist.Quantile(0.95)
}

// SizeHist returns the packet-size histogram (stochastic mode; nil
// otherwise).
func (t *TR) SizeHist() *stats.Histogram { return t.sizeHist }

// GapHist returns the inter-arrival histogram (stochastic mode; nil
// otherwise).
func (t *TR) GapHist() *stats.Histogram { return t.gapHist }

// LatHist returns the latency histogram (trace mode; nil otherwise).
func (t *TR) LatHist() *stats.Histogram { return t.latHist }

// SourceLatency is one source's latency summary at this receptor.
type SourceLatency struct {
	Src       flit.EndpointID
	Packets   uint64
	Mean, Max float64
	// Last is the most recent packet's network latency from this
	// source; zero unless Config.TrackLast is set.
	Last uint64
}

// flowRow is one source's entry in the latency analyzer's flow table.
type flowRow struct {
	src  flit.EndpointID
	lat  stats.Welford
	min  uint64 // latency floor, the congestion counter's baseline
	last uint64 // zero unless Config.TrackLast
}

// flow returns src's row, inserting it in source order on first sight.
func (t *TR) flow(src flit.EndpointID) *flowRow {
	i := sort.Search(len(t.flows), func(i int) bool { return t.flows[i].src >= src })
	if i == len(t.flows) || t.flows[i].src != src {
		t.flows = slices.Insert(t.flows, i, flowRow{src: src, min: ^uint64(0)})
	}
	return &t.flows[i]
}

// Flows returns the number of sources the latency analyzer has heard
// from (trace mode; 0 otherwise).
func (t *TR) Flows() int { return len(t.flows) }

// Flow returns the i-th source's latency summary, flows ordered by
// source endpoint; ok is false past Flows.
func (t *TR) Flow(i int) (SourceLatency, bool) {
	if i < 0 || i >= len(t.flows) {
		return SourceLatency{}, false
	}
	f := &t.flows[i]
	return SourceLatency{Src: f.src, Packets: f.lat.N(), Mean: f.lat.Mean(), Max: f.lat.Max(), Last: f.last}, true
}

// Recorded returns the recorded arrival trace (nil unless RecordTrace
// was set). The trace is valid input for a trace-driven generator.
func (t *TR) Recorded() *trace.Trace { return t.recorded }

// ResetStats clears all statistics; in-flight packets being reassembled
// are preserved.
func (t *TR) ResetStats() {
	t.packets, t.flits = 0, 0
	t.sawFirst, t.sawPkt = false, false
	t.congestion = 0
	for _, h := range []*stats.Histogram{t.sizeHist, t.gapHist, t.latHist} {
		if h != nil {
			h.Reset()
		}
	}
	t.netLat.Reset()
	t.totLat.Reset()
	t.flows = t.flows[:0]
}
