package platform

import (
	"fmt"
	"math"

	"nocemu/internal/flit"
	"nocemu/internal/receptor"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

// PaperTraffic selects the traffic flavor of the reference platform.
type PaperTraffic string

// Reference-platform traffic flavors.
const (
	PaperUniform PaperTraffic = "uniform"
	PaperBurst   PaperTraffic = "burst"
	// PaperPoisson is the paper's "other models possible (i.e.
	// Poisson)" flavor.
	PaperPoisson PaperTraffic = "poisson"
	PaperTrace   PaperTraffic = "trace"
)

// PaperOptions parameterizes the paper's experimental setup (slides
// 17-19): 6 switches, 4 TGs at 45% of link bandwidth, 4 TRs, and two
// inter-switch links loaded at 90%.
type PaperOptions struct {
	// Traffic selects uniform, burst or trace-driven generators.
	Traffic PaperTraffic
	// PacketsPerTG bounds each generator (0 = unlimited for stochastic
	// traffic; required for trace).
	PacketsPerTG uint64
	// Load is each TG's offered load in flits/cycle (default 0.45).
	Load float64
	// FlitsPerPacket is the packet length (default 9).
	FlitsPerPacket int
	// PacketsPerBurst shapes trace-driven bursts (default 8).
	PacketsPerBurst int
	// BufDepth is the switch input buffer depth (default 8).
	BufDepth int
	// Seed is the platform seed (default 1).
	Seed uint32
}

func (o *PaperOptions) applyDefaults() {
	if o.Traffic == "" {
		o.Traffic = PaperUniform
	}
	if o.Load == 0 {
		o.Load = 0.45
	}
	if o.FlitsPerPacket == 0 {
		o.FlitsPerPacket = 9
	}
	if o.PacketsPerBurst == 0 {
		o.PacketsPerBurst = 8
	}
	if o.BufDepth == 0 {
		o.BufDepth = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// paperPairs maps each TG endpoint to its TR endpoint in the reference
// setup: sources 0,1 (switch 0) target sinks 100,101 (switch 4);
// sources 2,3 (switch 1) target sinks 102,103 (switch 5). With pinned
// routing this loads links S2->S4 and S3->S5 to twice the per-TG load.
var paperPairs = map[flit.EndpointID]flit.EndpointID{
	0: 100, 1: 101, 2: 102, 3: 103,
}

// PaperConfig builds the configuration of the reference platform.
func PaperConfig(opts PaperOptions) (Config, error) {
	opts.applyDefaults()
	if opts.Load <= 0 || opts.Load > 1 {
		return Config{}, fmt.Errorf("platform: paper load %v out of (0,1]", opts.Load)
	}
	if opts.FlitsPerPacket < 1 || opts.FlitsPerPacket > 0xFFFF {
		return Config{}, fmt.Errorf("platform: paper packet length %d", opts.FlitsPerPacket)
	}
	if opts.Traffic == PaperTrace && opts.PacketsPerTG == 0 {
		return Config{}, fmt.Errorf("platform: trace traffic needs PacketsPerTG")
	}
	topo, err := topology.PaperSix()
	if err != nil {
		return Config{}, err
	}

	cfg := Config{
		Name:           fmt.Sprintf("paper-%s", opts.Traffic),
		Topology:       topo,
		SwitchBufDepth: opts.BufDepth,
		Select:         routing.First,
		Seed:           opts.Seed,
	}

	// Pin S1 traffic through S3 so the two hot links are S2->S4 and
	// S3->S5 (S0 traffic already prefers S2 under first-candidate
	// selection).
	s3port := -1
	links := topo.Links()
	for pi, oc := range topo.SwitchOutputs(1) {
		if oc.Link >= 0 && links[oc.Link].To == 3 {
			s3port = pi
			break
		}
	}
	if s3port < 0 {
		return Config{}, fmt.Errorf("platform: paper topology missing S1->S3 port")
	}
	cfg.Overrides = []RouteOverride{
		{Switch: 1, Dst: 102, Ports: []int{s3port}},
		{Switch: 1, Dst: 103, Ports: []int{s3port}},
	}

	trMode := receptor.Stochastic
	for _, src := range topo.Sources() {
		dst := paperPairs[src.ID]
		spec := TGSpec{
			Endpoint: src.ID,
			Limit:    opts.PacketsPerTG,
			Seed:     opts.Seed*2654435761 + uint32(src.ID) + 17,
		}
		dstCfg := traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}}
		switch opts.Traffic {
		case PaperUniform:
			gap := uint32(math.Round(float64(opts.FlitsPerPacket) * (1/opts.Load - 1)))
			spec.Gen = &traffic.UniformConfig{
				LenMin: uint16(opts.FlitsPerPacket), LenMax: uint16(opts.FlitsPerPacket),
				GapMin: gap, GapMax: gap,
				Dst: dstCfg, RandomPhase: true,
			}
		case PaperPoisson:
			// Packet rate lambda = Load / length per cycle.
			lambda := uint16(math.Max(1, math.Round(65536*opts.Load/float64(opts.FlitsPerPacket))))
			spec.Gen = &traffic.PoissonConfig{
				Lambda: lambda,
				LenMin: uint16(opts.FlitsPerPacket), LenMax: uint16(opts.FlitsPerPacket),
				Dst: dstCfg,
			}
		case PaperBurst:
			// Burst of ~PacketsPerBurst packets: per-packet stop
			// probability 1/PacketsPerBurst; OFF time sized for Load.
			pOnOff := uint16(65536 / opts.PacketsPerBurst)
			if pOnOff == 0 {
				pOnOff = 1
			}
			onCycles := float64(opts.FlitsPerPacket * opts.PacketsPerBurst)
			offCycles := onCycles * (1 - opts.Load) / opts.Load
			pOffOn := uint16(math.Max(1, math.Min(65535, math.Round(65536/offCycles))))
			spec.Gen = &traffic.BurstConfig{
				POffOn: pOffOn, POnOff: pOnOff,
				LenMin: uint16(opts.FlitsPerPacket), LenMax: uint16(opts.FlitsPerPacket),
				Dst: dstCfg,
			}
		case PaperTrace:
			trMode = receptor.TraceDriven
			nBursts := int(opts.PacketsPerTG) / opts.PacketsPerBurst
			if nBursts < 1 {
				nBursts = 1
			}
			tr, err := trace.SynthBurst(trace.BurstConfig{
				Name: fmt.Sprintf("paper-tg%d", src.ID), Dst: dst,
				NumBursts: nBursts, PacketsPerBurst: opts.PacketsPerBurst,
				FlitsPerPacket: opts.FlitsPerPacket, Load: opts.Load,
				// Offset bursts across TGs to avoid lockstep arrival.
				StartCycle: uint64(src.ID) * uint64(opts.FlitsPerPacket),
			})
			if err != nil {
				return Config{}, err
			}
			spec.Gen = &traffic.TraceConfig{Trace: tr}
			spec.Limit = 0 // trace length is the limit
		default:
			return Config{}, fmt.Errorf("platform: unknown paper traffic %q", opts.Traffic)
		}
		cfg.TGs = append(cfg.TGs, spec)
	}

	for _, snk := range topo.Sinks() {
		spec := TRSpec{
			Endpoint: snk.ID,
			Mode:     trMode,
		}
		if opts.PacketsPerTG > 0 {
			expect := opts.PacketsPerTG
			if opts.Traffic == PaperTrace {
				n := int(opts.PacketsPerTG) / opts.PacketsPerBurst
				if n < 1 {
					n = 1
				}
				expect = uint64(n * opts.PacketsPerBurst)
			}
			spec.ExpectPackets = expect
		}
		cfg.TRs = append(cfg.TRs, spec)
	}
	return cfg, nil
}

// BuildPaper builds the reference platform directly.
func BuildPaper(opts PaperOptions) (*Platform, error) {
	cfg, err := PaperConfig(opts)
	if err != nil {
		return nil, err
	}
	return Build(cfg)
}

// PaperHotLinks returns the two 90%-loaded links of a paper platform
// (indices into LinkLoads / Link).
func (p *Platform) PaperHotLinks() (int, int, error) {
	return hotLinksOf(p.cfg.Topology)
}

func hotLinksOf(t *topology.Topology) (int, int, error) {
	a, b, err := topology.HotLinks(t)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
