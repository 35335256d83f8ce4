// Data-centre-flavoured traffic models (flow arrivals with heavy-tailed
// sizes, synchronized incast waves), after the patterns catalogued in
// "Traffic Generation for Benchmarking Data Centre Networks". They
// implement the same Generator/Parameterized/snapshot contracts as the
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

// FlowGen is the flow-based arrival model.
type FlowGen struct {
	cfg       FlowConfig
	dst       *dstChooser
	remaining uint32 // packets left in the current flow
	flowDst   uint16 // destination of the current flow (flit.EndpointID)
	busy      uint64 // serialization countdown of the last packet
}

// NewFlowGen validates the configuration and builds the model.
func NewFlowGen(cfg FlowConfig) (*FlowGen, error) {
	if cfg.ArrivalQ16 == 0 {
		return nil, fmt.Errorf("traffic: flow arrival probability is zero")
	}
	if cfg.SizeMin < 1 || cfg.SizeMax < cfg.SizeMin {
		return nil, fmt.Errorf("traffic: flow size range [%d,%d]", cfg.SizeMin, cfg.SizeMax)
	}
	if err := checkLenRange(cfg.LenMin, cfg.LenMax); err != nil {
		return nil, err
	}
	dst, err := newDstChooser(cfg.Dst)
	if err != nil {
		return nil, err
	}
	return &FlowGen{cfg: cfg, dst: dst}, nil
}

// ModelName implements Generator.
func (f *FlowGen) ModelName() string { return "flow" }

// Exhausted implements Generator.
func (f *FlowGen) Exhausted() bool { return false }

// Reset implements Generator.
func (f *FlowGen) Reset() {
	f.remaining, f.flowDst, f.busy = 0, 0, 0
	f.dst.reset()
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

// ParamNames implements Parameterized for the flow model.
func (f *FlowGen) ParamNames() []string {
	return []string{"arrival_q16", "size_min", "size_max", "len_min", "len_max"}
}

// ReadParam implements Parameterized.
func (f *FlowGen) ReadParam(i uint32) (uint32, bool) {
	switch i {
	case 0:
		return uint32(f.cfg.ArrivalQ16), true
	case 1:
		return f.cfg.SizeMin, true
	case 2:
		return f.cfg.SizeMax, true
	case 3:
		return uint32(f.cfg.LenMin), true
	case 4:
		return uint32(f.cfg.LenMax), true
	}
	return 0, false
}

// WriteParam implements Parameterized.
func (f *FlowGen) WriteParam(i uint32, v uint32) bool {
	switch i {
	case 0:
		if v == 0 || v > 0xFFFF {
			return false
		}
		f.cfg.ArrivalQ16 = uint16(v)
	case 1:
		if v < 1 || v > f.cfg.SizeMax {
			return false
		}
		f.cfg.SizeMin = v
	case 2:
		if v < f.cfg.SizeMin {
			return false
		}
		f.cfg.SizeMax = v
	case 3:
		if v < 1 || v > 0xFFFF || uint16(v) > f.cfg.LenMax {
			return false
		}
		f.cfg.LenMin = uint16(v)
	case 4:
		if v > 0xFFFF || uint16(v) < f.cfg.LenMin {
			return false
		}
		f.cfg.LenMax = uint16(v)
	default:
		return false
	}
	return true
}

// SaveState implements Generator.
func (f *FlowGen) SaveState(w *state.Writer) {
	w.U16(f.cfg.ArrivalQ16)
	w.U32(f.cfg.SizeMin)
	w.U32(f.cfg.SizeMax)
	w.U16(f.cfg.LenMin)
	w.U16(f.cfg.LenMax)
	w.U32(f.remaining)
	w.U16(f.flowDst)
	w.U64(f.busy)
	f.dst.SaveState(w)
}

// LoadState implements Generator.
func (f *FlowGen) LoadState(r *state.Reader) error {
	arrival := r.U16()
	sizeMin, sizeMax := r.U32(), r.U32()
	lenMin, lenMax := r.U16(), r.U16()
	if err := r.Err(); err != nil {
		return err
	}
	if arrival == 0 {
		return fmt.Errorf("traffic: snapshot flow arrival probability is zero")
	}
	if sizeMin < 1 || sizeMax < sizeMin {
		return fmt.Errorf("traffic: snapshot flow size range [%d,%d]", sizeMin, sizeMax)
	}
	if err := checkLenRange(lenMin, lenMax); err != nil {
		return err
	}
	f.cfg.ArrivalQ16 = arrival
	f.cfg.SizeMin, f.cfg.SizeMax = sizeMin, sizeMax
	f.cfg.LenMin, f.cfg.LenMax = lenMin, lenMax
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

// IncastGen is the synchronized-wave incast model.
type IncastGen struct {
	cfg       IncastConfig
	dst       *dstChooser
	remaining uint32 // packets left in the current wave
	waveDst   uint16 // destination of the current wave
	busy      uint64 // serialization countdown
	nextWave  uint64 // cycle of the next wave start
}

// NewIncastGen validates the configuration and builds the model.
func NewIncastGen(cfg IncastConfig) (*IncastGen, error) {
	if cfg.Epoch < 1 {
		return nil, fmt.Errorf("traffic: incast epoch %d", cfg.Epoch)
	}
	if cfg.PacketsPerWave < 1 {
		return nil, fmt.Errorf("traffic: incast wave of %d packets", cfg.PacketsPerWave)
	}
	if err := checkLenRange(cfg.LenMin, cfg.LenMax); err != nil {
		return nil, err
	}
	dst, err := newDstChooser(cfg.Dst)
	if err != nil {
		return nil, err
	}
	return &IncastGen{cfg: cfg, dst: dst, nextWave: cfg.Offset}, nil
}

// ModelName implements Generator.
func (g *IncastGen) ModelName() string { return "incast" }

// Exhausted implements Generator.
func (g *IncastGen) Exhausted() bool { return false }

// Reset implements Generator.
func (g *IncastGen) Reset() {
	g.remaining, g.waveDst, g.busy = 0, 0, 0
	g.nextWave = g.cfg.Offset
	g.dst.reset()
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

// ParamNames implements Parameterized for the incast model (the epoch
// is construction-time configuration shared across the wave group).
func (g *IncastGen) ParamNames() []string {
	return []string{"packets_per_wave", "len_min", "len_max"}
}

// ReadParam implements Parameterized.
func (g *IncastGen) ReadParam(i uint32) (uint32, bool) {
	switch i {
	case 0:
		return g.cfg.PacketsPerWave, true
	case 1:
		return uint32(g.cfg.LenMin), true
	case 2:
		return uint32(g.cfg.LenMax), true
	}
	return 0, false
}

// WriteParam implements Parameterized.
func (g *IncastGen) WriteParam(i uint32, v uint32) bool {
	switch i {
	case 0:
		if v < 1 {
			return false
		}
		g.cfg.PacketsPerWave = v
	case 1:
		if v < 1 || v > 0xFFFF || uint16(v) > g.cfg.LenMax {
			return false
		}
		g.cfg.LenMin = uint16(v)
	case 2:
		if v > 0xFFFF || uint16(v) < g.cfg.LenMin {
			return false
		}
		g.cfg.LenMax = uint16(v)
	default:
		return false
	}
	return true
}

// SaveState implements Generator.
func (g *IncastGen) SaveState(w *state.Writer) {
	w.U32(g.cfg.PacketsPerWave)
	w.U16(g.cfg.LenMin)
	w.U16(g.cfg.LenMax)
	w.U32(g.remaining)
	w.U16(g.waveDst)
	w.U64(g.busy)
	w.U64(g.nextWave)
	g.dst.SaveState(w)
}

// LoadState implements Generator.
func (g *IncastGen) LoadState(r *state.Reader) error {
	ppw := r.U32()
	lenMin, lenMax := r.U16(), r.U16()
	if err := r.Err(); err != nil {
		return err
	}
	if ppw < 1 {
		return fmt.Errorf("traffic: snapshot incast wave of %d packets", ppw)
	}
	if err := checkLenRange(lenMin, lenMax); err != nil {
		return err
	}
	g.cfg.PacketsPerWave = ppw
	g.cfg.LenMin, g.cfg.LenMax = lenMin, lenMax
	g.remaining = r.U32()
	g.waveDst = r.U16()
	g.busy = r.U64()
	g.nextWave = r.U64()
	return g.dst.LoadState(r)
}
