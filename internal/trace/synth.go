package trace

import (
	"fmt"

	"nocemu/internal/flit"
)

// BurstConfig describes a synthetic burst-structured application trace:
// bursts of PacketsPerBurst back-to-back packets of FlitsPerPacket flits
// each, separated by idle gaps sized to hit Load (average flits/cycle).
// This is the workload shape of the paper's figures: congestion and
// latency versus "number of packets per burst" for several "flits per
// packet".
type BurstConfig struct {
	Name            string
	Dst             flit.EndpointID
	NumBursts       int
	PacketsPerBurst int
	FlitsPerPacket  int
	// Load is the average offered load in flits/cycle (0 < Load <= 1);
	// the paper's setup uses 0.45.
	Load float64
	// StartCycle offsets the first burst.
	StartCycle uint64
}

// SynthBurst builds a burst trace. Within a burst, packet k starts
// FlitsPerPacket cycles after packet k-1 (back-to-back serialization);
// the gap after each burst stretches the average rate to Load.
func SynthBurst(cfg BurstConfig) (*Trace, error) {
	if cfg.NumBursts < 1 || cfg.PacketsPerBurst < 1 || cfg.FlitsPerPacket < 1 {
		return nil, fmt.Errorf("trace: bad burst shape %d/%d/%d",
			cfg.NumBursts, cfg.PacketsPerBurst, cfg.FlitsPerPacket)
	}
	if cfg.FlitsPerPacket > 0xFFFF {
		return nil, fmt.Errorf("trace: %d flits/packet overflows", cfg.FlitsPerPacket)
	}
	if cfg.Load <= 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("trace: load %v out of (0,1]", cfg.Load)
	}
	burstFlits := cfg.PacketsPerBurst * cfg.FlitsPerPacket
	// Burst occupies burstFlits cycles; a period of burstFlits/Load
	// cycles gives the requested average rate.
	period := uint64(float64(burstFlits) / cfg.Load)
	if period < uint64(burstFlits) {
		period = uint64(burstFlits)
	}
	t := &Trace{Name: cfg.Name}
	cycle := cfg.StartCycle
	for b := 0; b < cfg.NumBursts; b++ {
		start := cycle
		for p := 0; p < cfg.PacketsPerBurst; p++ {
			t.Records = append(t.Records, Record{
				Cycle: start + uint64(p*cfg.FlitsPerPacket),
				Dst:   cfg.Dst,
				Len:   uint16(cfg.FlitsPerPacket),
			})
		}
		cycle = start + period
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// CBRConfig describes a constant-bit-rate trace: packets of Len flits
// every Period cycles.
type CBRConfig struct {
	Name       string
	Dst        flit.EndpointID
	NumPackets int
	Len        uint16
	Period     uint64
}

// SynthCBR builds a constant-bit-rate trace (Load = Len/Period).
func SynthCBR(cfg CBRConfig) (*Trace, error) {
	if cfg.NumPackets < 1 || cfg.Len < 1 {
		return nil, fmt.Errorf("trace: bad CBR shape %d packets of %d flits", cfg.NumPackets, cfg.Len)
	}
	if cfg.Period < uint64(cfg.Len) {
		return nil, fmt.Errorf("trace: period %d shorter than packet %d", cfg.Period, cfg.Len)
	}
	t := &Trace{Name: cfg.Name}
	for p := 0; p < cfg.NumPackets; p++ {
		t.Records = append(t.Records, Record{
			Cycle: uint64(p) * cfg.Period,
			Dst:   cfg.Dst,
			Len:   cfg.Len,
		})
	}
	return t, nil
}

// Summary describes a trace's aggregate shape — what nocgen prints and
// what lets a user sanity-check a recorded application trace before
// replaying it.
type Summary struct {
	Records     int
	TotalFlits  uint64
	Duration    uint64
	OfferedLoad float64
	// MinLen/MaxLen/MeanLen summarize packet lengths.
	MinLen, MaxLen uint16
	MeanLen        float64
	// MeanGap and Burstiness summarize inter-emission gaps: Burstiness
	// is the index of dispersion (variance/mean) of the gaps — 0 for
	// CBR, large for bursty traffic.
	MeanGap    float64
	Burstiness float64
	// Destinations counts distinct targets.
	Destinations int
}

// Summarize computes the trace summary.
func (t *Trace) Summarize() Summary {
	s := Summary{Records: len(t.Records)}
	if len(t.Records) == 0 {
		return s
	}
	s.TotalFlits = t.TotalFlits()
	s.Duration = t.Duration()
	s.OfferedLoad = t.OfferedLoad()
	s.MinLen = t.Records[0].Len
	dsts := map[uint16]bool{}
	var lenSum float64
	for _, r := range t.Records {
		if r.Len < s.MinLen {
			s.MinLen = r.Len
		}
		if r.Len > s.MaxLen {
			s.MaxLen = r.Len
		}
		lenSum += float64(r.Len)
		dsts[uint16(r.Dst)] = true
	}
	s.MeanLen = lenSum / float64(len(t.Records))
	s.Destinations = len(dsts)
	if len(t.Records) > 1 {
		var gapSum float64
		gaps := make([]float64, 0, len(t.Records)-1)
		for i := 1; i < len(t.Records); i++ {
			g := float64(t.Records[i].Cycle - t.Records[i-1].Cycle)
			gaps = append(gaps, g)
			gapSum += g
		}
		s.MeanGap = gapSum / float64(len(gaps))
		if s.MeanGap > 0 {
			var m2 float64
			for _, g := range gaps {
				d := g - s.MeanGap
				m2 += d * d
			}
			s.Burstiness = m2 / float64(len(gaps)) / s.MeanGap
		}
	}
	return s
}
