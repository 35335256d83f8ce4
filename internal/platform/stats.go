package platform

import (
	"nocemu/internal/receptor"
	"nocemu/internal/switchfab"
)

// Totals aggregates platform-wide statistics — the numbers the paper's
// monitor displays after an emulation.
type Totals struct {
	// Cycles is the engine cycle count.
	Cycles uint64
	// PacketsOffered/Sent aggregate the TGs.
	PacketsOffered uint64
	PacketsSent    uint64
	FlitsSent      uint64
	// PacketsReceived/FlitsReceived aggregate the TRs.
	PacketsReceived uint64
	FlitsReceived   uint64
	// FlitsRouted and BlockedCycles aggregate the switches.
	FlitsRouted   uint64
	BlockedCycles uint64
	// CongestionRate is blocked / (blocked + routed) over all switches,
	// the platform congestion measure of the figure-3 experiment.
	CongestionRate float64
	// MeanNetLatency averages the trace-driven receptors' latency
	// analyzers, weighted by packets.
	MeanNetLatency float64
	// CongestionCycles sums the trace-driven receptors' congestion
	// counters.
	CongestionCycles uint64
}

// Totals computes the aggregate snapshot.
func (p *Platform) Totals() Totals {
	t := Totals{Cycles: p.eng.Cycle()}
	for _, tg := range p.tgs {
		st := tg.Stats()
		t.PacketsOffered += st.Offered
		t.PacketsSent += st.Injector.PacketsSent
		t.FlitsSent += st.Injector.FlitsSent
	}
	var latWeighted float64
	var latPackets uint64
	for _, tr := range p.trs {
		st := tr.Stats()
		t.PacketsReceived += st.Packets
		t.FlitsReceived += st.Flits
		if st.Mode == receptor.TraceDriven && st.Packets > 0 {
			latWeighted += st.NetLatencyMean * float64(st.Packets)
			latPackets += st.Packets
			t.CongestionCycles += st.CongestionCycles
		}
	}
	if latPackets > 0 {
		t.MeanNetLatency = latWeighted / float64(latPackets)
	}
	agg := switchfab.Stats{}
	for _, sw := range p.switches {
		st := sw.Stats()
		t.FlitsRouted += st.FlitsRouted
		t.BlockedCycles += st.BlockedCycles
		agg.FlitsRouted += st.FlitsRouted
		agg.BlockedCycles += st.BlockedCycles
	}
	t.CongestionRate = agg.CongestionRate()
	return t
}

// LinkLoads returns the utilization of every inter-switch link, indexed
// by topology link index.
func (p *Platform) LinkLoads() []float64 {
	out := make([]float64, len(p.links))
	for i, l := range p.links {
		out[i] = l.Utilization()
	}
	return out
}
