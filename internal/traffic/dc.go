// Data-centre-flavoured traffic models (flow arrivals with heavy-tailed
// sizes, synchronized incast waves), after the patterns catalogued in
// "Traffic Generation for Benchmarking Data Centre Networks". They
// declare their registers and implement the snapshot contract like the
// paper's uniform/burst/poisson models.
package traffic

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/state"
)

// FlowConfig parameterizes the flow model: while idle, a new flow
// arrives each cycle with probability ArrivalQ16; a flow is a
// back-to-back train of packets to one destination, with the packet
// count drawn from a bounded Pareto (α = 1) over [SizeMin, SizeMax] —
// many mice, few elephants.
type FlowConfig struct {
	// ArrivalQ16 is the per-idle-cycle flow arrival probability (Q16).
	ArrivalQ16 uint16 `json:"arrival_q16"`
	// SizeMin, SizeMax bound the flow size in packets.
	SizeMin uint32    `json:"size_min"`
	SizeMax uint32    `json:"size_max"`
	LenMin  uint16    `json:"len_min"`
	LenMax  uint16    `json:"len_max"`
	Dst     DstConfig `json:"-"`
}

var flowRegs = &registers[FlowConfig]{
	params: []param[FlowConfig]{
		reg("arrival_q16", func(c *FlowConfig) *uint16 { return &c.ArrivalQ16 }),
		reg("size_min", func(c *FlowConfig) *uint32 { return &c.SizeMin }),
		reg("size_max", func(c *FlowConfig) *uint32 { return &c.SizeMax }),
		reg("len_min", func(c *FlowConfig) *uint16 { return &c.LenMin }),
		reg("len_max", func(c *FlowConfig) *uint16 { return &c.LenMax }),
	},
	check: func(c *FlowConfig) error {
		if c.ArrivalQ16 == 0 {
			return fmt.Errorf("traffic: flow arrival probability is zero")
		}
		if c.SizeMin < 1 || c.SizeMax < c.SizeMin {
			return fmt.Errorf("traffic: flow size range [%d,%d]", c.SizeMin, c.SizeMax)
		}
		return checkLenRange(c.LenMin, c.LenMax)
	},
}

// FlowGen is the flow-based arrival model.
type FlowGen struct {
	bank[FlowConfig]
	remaining uint32 // packets left in the current flow
	flowDst   uint16 // destination of the current flow (flit.EndpointID)
	busy      uint64 // serialization countdown of the last packet
}

// NewFlowGen validates the configuration and builds the model.
func NewFlowGen(cfg FlowConfig) (*FlowGen, error) {
	g := &FlowGen{}
	if err := g.init(flowRegs, cfg, cfg.Dst); err != nil {
		return nil, err
	}
	return g, nil
}

// drawFlowSize draws a bounded-Pareto (α = 1) flow size: with u
// uniform on [1, 65536], min/u is Pareto-tailed (P[size >= s] ∝ 1/s),
// clamped into [SizeMin, SizeMax].
func (f *FlowGen) drawFlowSize(r *rng.LFSR) uint32 {
	u := uint32(r.Intn(65536)) + 1
	size := f.cfg.SizeMin * 65536 / u
	if size < f.cfg.SizeMin {
		size = f.cfg.SizeMin
	}
	if size > f.cfg.SizeMax {
		size = f.cfg.SizeMax
	}
	return size
}

// Step implements Generator.
func (f *FlowGen) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if f.busy > 0 {
		f.busy--
		return false
	}
	if f.remaining == 0 {
		if !r.Bernoulli16(f.cfg.ArrivalQ16) {
			return false
		}
		f.remaining = f.drawFlowSize(r)
		f.flowDst = uint16(f.dst.next(r))
	}
	l := drawLen(r, f.cfg.LenMin, f.cfg.LenMax)
	f.busy = uint64(l) - 1
	f.remaining--
	*d = Demand{Dst: flit.EndpointID(f.flowDst), Len: l}
	return true
}

// Sleep implements Generator: only the serialization countdown is a
// guaranteed no-op; an idle model draws the arrival Bernoulli every
// step and cannot sleep.
func (f *FlowGen) Sleep(cycle uint64) (uint64, bool) { return f.busy, f.busy > 0 }

// SkipSteps implements Generator.
func (f *FlowGen) SkipSteps(n uint64) {
	if n > f.busy {
		n = f.busy
	}
	f.busy -= n
}

// SaveState implements Generator.
func (f *FlowGen) SaveState(w *state.Writer) {
	f.saveParams(w)
	w.U32(f.remaining)
	w.U16(f.flowDst)
	w.U64(f.busy)
	f.dst.SaveState(w)
}

// LoadState implements Generator.
func (f *FlowGen) LoadState(r *state.Reader) error {
	if err := f.loadParams(r); err != nil {
		return err
	}
	f.remaining = r.U32()
	f.flowDst = r.U16()
	f.busy = r.U64()
	return f.dst.LoadState(r)
}

// IncastConfig parameterizes the incast model: every Epoch cycles a
// wave of PacketsPerWave packets is emitted back to back toward one
// destination drawn from the Dst policy. Generators sharing an Epoch,
// Offset and a lockstep destination rotation produce the many-to-one
// bursts that stress fan-in buffering.
type IncastConfig struct {
	// Epoch is the cycle period between wave starts (>= 1).
	Epoch uint64 `json:"epoch"`
	// PacketsPerWave is the packets emitted per wave (>= 1).
	PacketsPerWave uint32 `json:"packets_per_wave"`
	LenMin         uint16 `json:"len_min"`
	LenMax         uint16 `json:"len_max"`
	// Offset delays the first wave.
	Offset uint64    `json:"offset,omitempty"`
	Dst    DstConfig `json:"-"`
}

// incastRegs leaves the epoch and offset out of the registers: they
// are construction-time configuration shared across the wave group.
var incastRegs = &registers[IncastConfig]{
	params: []param[IncastConfig]{
		reg("packets_per_wave", func(c *IncastConfig) *uint32 { return &c.PacketsPerWave }),
		reg("len_min", func(c *IncastConfig) *uint16 { return &c.LenMin }),
		reg("len_max", func(c *IncastConfig) *uint16 { return &c.LenMax }),
	},
	check: func(c *IncastConfig) error {
		if c.Epoch < 1 {
			return fmt.Errorf("traffic: incast epoch %d", c.Epoch)
		}
		if c.PacketsPerWave < 1 {
			return fmt.Errorf("traffic: incast wave of %d packets", c.PacketsPerWave)
		}
		return checkLenRange(c.LenMin, c.LenMax)
	},
}

// IncastGen is the synchronized-wave incast model.
type IncastGen struct {
	bank[IncastConfig]
	remaining uint32 // packets left in the current wave
	waveDst   uint16 // destination of the current wave
	busy      uint64 // serialization countdown
	nextWave  uint64 // cycle of the next wave start
}

// NewIncastGen validates the configuration and builds the model.
func NewIncastGen(cfg IncastConfig) (*IncastGen, error) {
	g := &IncastGen{nextWave: cfg.Offset}
	if err := g.init(incastRegs, cfg, cfg.Dst); err != nil {
		return nil, err
	}
	return g, nil
}

// Step implements Generator.
func (g *IncastGen) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if g.busy > 0 {
		g.busy--
		return false
	}
	if g.remaining == 0 {
		if cycle < g.nextWave {
			return false
		}
		// Monotone catch-up keeps wave starts deterministic even when
		// backpressure delays the tail of the previous wave past an
		// epoch boundary.
		for g.nextWave <= cycle {
			g.nextWave += g.cfg.Epoch
		}
		g.remaining = g.cfg.PacketsPerWave
		g.waveDst = uint16(g.dst.next(r))
	}
	l := drawLen(r, g.cfg.LenMin, g.cfg.LenMax)
	g.busy = uint64(l) - 1
	g.remaining--
	*d = Demand{Dst: flit.EndpointID(g.waveDst), Len: l}
	return true
}

// Sleep implements Generator: the serialization countdown and the wait
// for the next wave are both guaranteed no-ops.
func (g *IncastGen) Sleep(cycle uint64) (uint64, bool) {
	if g.busy > 0 {
		return g.busy, true
	}
	if g.remaining == 0 && cycle+1 < g.nextWave {
		return g.nextWave - cycle - 1, true
	}
	return 0, false
}

// SkipSteps implements Generator; waiting for a wave consumes no
// state, only the serialization countdown does.
func (g *IncastGen) SkipSteps(n uint64) {
	if g.busy == 0 {
		return
	}
	if n > g.busy {
		n = g.busy
	}
	g.busy -= n
}

// SaveState implements Generator.
func (g *IncastGen) SaveState(w *state.Writer) {
	g.saveParams(w)
	w.U32(g.remaining)
	w.U16(g.waveDst)
	w.U64(g.busy)
	w.U64(g.nextWave)
	g.dst.SaveState(w)
}

// LoadState implements Generator.
func (g *IncastGen) LoadState(r *state.Reader) error {
	if err := g.loadParams(r); err != nil {
		return err
	}
	g.remaining = r.U32()
	g.waveDst = r.U16()
	g.busy = r.U64()
	g.nextWave = r.U64()
	return g.dst.LoadState(r)
}
