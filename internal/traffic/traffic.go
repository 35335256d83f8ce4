// Package traffic implements the paper's traffic generators.
//
// A TG is "a bench of registers (for traffic parameterization, for
// random initialization), a packet generator which generates various
// traffic patterns, and a network interface". The packet generator is a
// Generator; the network interface is a nic.Injector; the registers are
// exposed through internal/regmap. Models provided, as in the paper:
//
//   - uniform: parameterized by packet length and inter-packet interval;
//   - burst: a 2-state (ON/OFF) Markov chain with configurable
//     transition probabilities;
//   - poisson: Bernoulli-per-cycle packet arrivals (the "other models
//     possible (i.e. Poisson)" of the paper);
//   - trace: replays traffic recorded from a real-life application.
//
// dc.go adds the flow and incast models and script.go the externally
// scripted source; the table in models.go is the complete list, and the
// only one.
package traffic

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/state"
	"nocemu/internal/trace"
)

// Demand is one packet the generator wants to emit.
type Demand struct {
	Dst     flit.EndpointID
	Len     uint16
	Payload uint32
}

// Generator is the packet-generator sub-block of a traffic generator.
type Generator interface {
	// ModelName identifies the traffic model for reports.
	ModelName() string
	// Step is consulted once per free cycle. When the model emits a
	// packet it fills d and returns true; false means no packet now.
	// The fill-in style keeps the per-cycle hot path allocation-free.
	Step(cycle uint64, r *rng.LFSR, d *Demand) bool
	// Exhausted reports that the generator will never emit again
	// (always false for stochastic models).
	Exhausted() bool
	// Sleep reports how many upcoming Step calls after the given cycle
	// are guaranteed to be no-ops that consume no randomness (a pure
	// countdown, or waiting for a trace record's cycle). ok=false means
	// the model cannot promise any — e.g. it draws randomness every
	// step. The owning TG uses this for quiescence: it parks through
	// the sleep and repays the skipped calls with SkipSteps.
	Sleep(cycle uint64) (n uint64, ok bool)
	// SkipSteps advances internal countdowns exactly as n no-op Step
	// calls would have; n must not exceed the last Sleep result.
	SkipSteps(n uint64)
	// SaveState serializes the model's progress and runtime-writable
	// parameters (DESIGN.md §13).
	SaveState(w *state.Writer)
	// LoadState restores them, refusing parameters WriteParam would.
	LoadState(r *state.Reader) error
}

// DstPolicy selects how destinations are drawn.
type DstPolicy string

const (
	// DstFixed always sends to Dsts[0].
	DstFixed DstPolicy = "fixed"
	// DstUniform draws uniformly from Dsts.
	DstUniform DstPolicy = "uniform"
	// DstRoundRobin cycles through Dsts.
	DstRoundRobin DstPolicy = "round-robin"
	// DstHotspot draws from Hot with probability HotQ16, uniformly from
	// Dsts otherwise — the classic hotspot pattern where a fraction of
	// all traffic converges on a few victims.
	DstHotspot DstPolicy = "hotspot"
)

// DstConfig parameterizes destination selection. The JSON tags are the
// keys a TG carries in the platform-config file format.
type DstConfig struct {
	Policy DstPolicy         `json:"dst_policy"`
	Dsts   []flit.EndpointID `json:"dsts"`
	// Hot and HotQ16 apply to DstHotspot: each draw goes to a uniform
	// member of Hot with probability HotQ16 (Q16 fixed point).
	Hot    []flit.EndpointID `json:"hot,omitempty"`
	HotQ16 uint16            `json:"hot_q16,omitempty"`
	// skip is one plus the index of the Dsts entry that is not a
	// destination (0: every entry is). It lets the workloads hand every
	// source one shared sink list instead of a copy of "every sink but
	// mine" each. JSON does not carry it: a config read from a file lists
	// its destinations in full.
	skip int
}

// len returns the number of destinations.
func (c *DstConfig) len() int {
	if c.skip > 0 {
		return len(c.Dsts) - 1
	}
	return len(c.Dsts)
}

// at returns destination i of [0, len()): the Dsts entry i, stepping past
// the skipped one.
func (c *DstConfig) at(i int) flit.EndpointID {
	if c.skip > 0 && i >= c.skip-1 {
		i++
	}
	return c.Dsts[i]
}

type dstChooser struct {
	cfg DstConfig
	i   int
}

func newDstChooser(cfg DstConfig) (*dstChooser, error) {
	if cfg.len() == 0 {
		return nil, fmt.Errorf("traffic: no destinations")
	}
	switch cfg.Policy {
	case DstFixed, DstUniform, DstRoundRobin:
	case DstHotspot:
		if len(cfg.Hot) == 0 {
			return nil, fmt.Errorf("traffic: hotspot policy with no hot destinations")
		}
		if cfg.HotQ16 == 0 {
			return nil, fmt.Errorf("traffic: hotspot policy with zero hot probability")
		}
	default:
		return nil, fmt.Errorf("traffic: unknown destination policy %q", cfg.Policy)
	}
	return &dstChooser{cfg: cfg}, nil
}

func (d *dstChooser) next(r *rng.LFSR) flit.EndpointID {
	switch d.cfg.Policy {
	case DstUniform:
		return d.cfg.at(r.Intn(d.cfg.len()))
	case DstRoundRobin:
		dst := d.cfg.at(d.i)
		d.i = (d.i + 1) % d.cfg.len()
		return dst
	case DstHotspot:
		// Stateless draws keep the chooser's snapshot format (the
		// rotation cursor alone) unchanged.
		if r.Bernoulli16(d.cfg.HotQ16) {
			return d.cfg.Hot[r.Intn(len(d.cfg.Hot))]
		}
		return d.cfg.at(r.Intn(d.cfg.len()))
	default:
		return d.cfg.at(0)
	}
}

// checkLenRange validates a packet-length range.
func checkLenRange(min, max uint16) error {
	if min < 1 || max < min {
		return fmt.Errorf("traffic: packet length range [%d,%d]", min, max)
	}
	return nil
}

// drawLen draws a packet length from [min, max]. Reading the bounds at
// draw time keeps register writes (WriteParam) live without a rebuild.
func drawLen(r *rng.LFSR, min, max uint16) uint16 {
	if min == max {
		return min
	}
	return uint16(r.IntRange(int(min), int(max)))
}

// UniformConfig parameterizes the uniform model: packets of length
// [LenMin, LenMax] separated by idle gaps of [GapMin, GapMax] cycles on
// top of the packet's own serialization time. The mean offered load is
// meanLen / (meanLen + meanGap) flits per cycle.
type UniformConfig struct {
	LenMin uint16    `json:"len_min"`
	LenMax uint16    `json:"len_max"`
	GapMin uint32    `json:"gap_min"`
	GapMax uint32    `json:"gap_max"`
	Dst    DstConfig `json:"-"`
	// RandomPhase desynchronizes multiple generators by drawing the
	// first emission offset from [0, len+gap).
	RandomPhase bool `json:"random_phase,omitempty"`
}

var uniformRegs = &registers[UniformConfig]{
	params: []param[UniformConfig]{
		reg("len_min", func(c *UniformConfig) *uint16 { return &c.LenMin }),
		reg("len_max", func(c *UniformConfig) *uint16 { return &c.LenMax }),
		reg("gap_min", func(c *UniformConfig) *uint32 { return &c.GapMin }),
		reg("gap_max", func(c *UniformConfig) *uint32 { return &c.GapMax }),
	},
	check: func(c *UniformConfig) error {
		if err := checkLenRange(c.LenMin, c.LenMax); err != nil {
			return err
		}
		if c.GapMax < c.GapMin {
			return fmt.Errorf("traffic: gap range [%d,%d]", c.GapMin, c.GapMax)
		}
		return nil
	},
}

// Uniform is the paper's uniform traffic model.
type Uniform struct {
	bank[UniformConfig]
	wait    uint64
	started bool
}

// NewUniform validates the configuration and builds the model.
func NewUniform(cfg UniformConfig) (*Uniform, error) {
	g := &Uniform{}
	if err := g.init(uniformRegs, cfg, cfg.Dst); err != nil {
		return nil, err
	}
	return g, nil
}

func (u *Uniform) gap(r *rng.LFSR) uint64 {
	if u.cfg.GapMin == u.cfg.GapMax {
		return uint64(u.cfg.GapMin)
	}
	return uint64(r.IntRange(int(u.cfg.GapMin), int(u.cfg.GapMax)))
}

// Step implements Generator.
func (u *Uniform) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if !u.started {
		u.started = true
		if u.cfg.RandomPhase {
			period := int(u.cfg.LenMin) + int(u.cfg.GapMin)
			if period > 1 {
				u.wait = uint64(r.Intn(period))
			}
		}
	}
	if u.wait > 0 {
		u.wait--
		return false
	}
	l := drawLen(r, u.cfg.LenMin, u.cfg.LenMax)
	// Next emission after this packet's serialization plus a gap.
	u.wait = uint64(l) + u.gap(r) - 1
	*d = Demand{Dst: u.dst.next(r), Len: l}
	return true
}

// Sleep implements Generator: while wait is counting down, Step only
// decrements it. Before the first Step the model still owes its
// random-phase draw, so it cannot sleep.
func (u *Uniform) Sleep(cycle uint64) (uint64, bool) {
	if !u.started {
		return 0, false
	}
	return u.wait, u.wait > 0
}

// SkipSteps implements Generator.
func (u *Uniform) SkipSteps(n uint64) {
	if n > u.wait {
		n = u.wait
	}
	u.wait -= n
}

// BurstConfig parameterizes the burst model: a 2-state Markov chain.
// In the ON state the generator emits packets back to back; transition
// probabilities are Q16 fixed point (65536 = probability 1), the format
// of the TG's parameter registers.
type BurstConfig struct {
	// POffOn is the per-cycle probability of leaving OFF.
	POffOn uint16 `json:"p_off_on"`
	// POnOff is the per-packet probability of ending the burst.
	POnOff uint16    `json:"p_on_off"`
	LenMin uint16    `json:"len_min"`
	LenMax uint16    `json:"len_max"`
	Dst    DstConfig `json:"-"`
}

var burstRegs = &registers[BurstConfig]{
	params: []param[BurstConfig]{
		reg("p_off_on", func(c *BurstConfig) *uint16 { return &c.POffOn }),
		reg("p_on_off", func(c *BurstConfig) *uint16 { return &c.POnOff }),
		reg("len_min", func(c *BurstConfig) *uint16 { return &c.LenMin }),
		reg("len_max", func(c *BurstConfig) *uint16 { return &c.LenMax }),
	},
	check: func(c *BurstConfig) error {
		if err := checkLenRange(c.LenMin, c.LenMax); err != nil {
			return err
		}
		if c.POffOn == 0 {
			return fmt.Errorf("traffic: burst POffOn is zero (generator would never start)")
		}
		if c.POnOff == 0 {
			return fmt.Errorf("traffic: burst POnOff is zero (burst would never end)")
		}
		return nil
	},
}

// Burst is the paper's burst traffic model.
type Burst struct {
	bank[BurstConfig]
	on   bool
	busy uint64
}

// NewBurst validates the configuration and builds the model.
func NewBurst(cfg BurstConfig) (*Burst, error) {
	g := &Burst{}
	if err := g.init(burstRegs, cfg, cfg.Dst); err != nil {
		return nil, err
	}
	return g, nil
}

// Step implements Generator.
func (b *Burst) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if b.busy > 0 {
		b.busy--
		return false
	}
	if !b.on {
		if !r.Bernoulli16(b.cfg.POffOn) {
			return false
		}
		b.on = true
	}
	l := drawLen(r, b.cfg.LenMin, b.cfg.LenMax)
	b.busy = uint64(l) - 1 // serialization of this packet
	if r.Bernoulli16(b.cfg.POnOff) {
		b.on = false
	}
	*d = Demand{Dst: b.dst.next(r), Len: l}
	return true
}

// Sleep implements Generator: only the serialization countdown is a
// guaranteed no-op; in the OFF state every Step draws the Markov
// transition, so the model cannot sleep there.
func (b *Burst) Sleep(cycle uint64) (uint64, bool) {
	return b.busy, b.busy > 0
}

// SkipSteps implements Generator.
func (b *Burst) SkipSteps(n uint64) {
	if n > b.busy {
		n = b.busy
	}
	b.busy -= n
}

// MeanLoad returns the analytic mean offered load (flits/cycle) of a
// burst configuration, used by experiments to size parameters: the
// chain is ON for meanLen/pOnOff cycles per burst and OFF for
// 1/pOffOn cycles between bursts.
func (cfg BurstConfig) MeanLoad() float64 {
	pOn := float64(cfg.POffOn) / 65536
	pOff := float64(cfg.POnOff) / 65536
	meanLen := float64(cfg.LenMin+cfg.LenMax) / 2
	onCycles := meanLen / pOff
	offCycles := 1 / pOn
	return onCycles / (onCycles + offCycles)
}

// PoissonConfig parameterizes the Poisson model: packet creations are a
// Bernoulli process with per-cycle probability Lambda (Q16), giving
// geometrically distributed inter-arrival times — the discrete-time
// Poisson process.
type PoissonConfig struct {
	// Lambda is the per-cycle packet creation probability in Q16.
	Lambda uint16    `json:"lambda"`
	LenMin uint16    `json:"len_min"`
	LenMax uint16    `json:"len_max"`
	Dst    DstConfig `json:"-"`
}

var poissonRegs = &registers[PoissonConfig]{
	params: []param[PoissonConfig]{
		reg("lambda", func(c *PoissonConfig) *uint16 { return &c.Lambda }),
		reg("len_min", func(c *PoissonConfig) *uint16 { return &c.LenMin }),
		reg("len_max", func(c *PoissonConfig) *uint16 { return &c.LenMax }),
	},
	check: func(c *PoissonConfig) error {
		if c.Lambda == 0 {
			return fmt.Errorf("traffic: poisson lambda is zero")
		}
		return checkLenRange(c.LenMin, c.LenMax)
	},
}

// Poisson is a Poisson-arrivals traffic model.
type Poisson struct {
	bank[PoissonConfig]
}

// NewPoisson validates the configuration and builds the model.
func NewPoisson(cfg PoissonConfig) (*Poisson, error) {
	g := &Poisson{}
	if err := g.init(poissonRegs, cfg, cfg.Dst); err != nil {
		return nil, err
	}
	return g, nil
}

// Step implements Generator.
func (p *Poisson) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if !r.Bernoulli16(p.cfg.Lambda) {
		return false
	}
	*d = Demand{Dst: p.dst.next(r), Len: drawLen(r, p.cfg.LenMin, p.cfg.LenMax)}
	return true
}

// Sleep implements Generator: a Poisson model draws randomness every
// cycle and can never sleep.
func (p *Poisson) Sleep(cycle uint64) (uint64, bool) { return 0, false }

// SkipSteps implements Generator.
func (p *Poisson) SkipSteps(n uint64) {}

// TraceGen replays a recorded trace: each record is emitted at its
// recorded cycle, or as soon afterwards as backpressure allows.
type TraceGen struct {
	tr  *trace.Trace
	idx int
}

// NewTraceGen validates the trace and builds the generator.
func NewTraceGen(tr *trace.Trace) (*TraceGen, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &TraceGen{tr: tr}, nil
}

// ModelName implements Generator.
func (g *TraceGen) ModelName() string { return "trace" }

// Exhausted implements Generator.
func (g *TraceGen) Exhausted() bool { return g.idx >= len(g.tr.Records) }

// Remaining returns the number of records not yet emitted.
func (g *TraceGen) Remaining() int { return len(g.tr.Records) - g.idx }

// Step implements Generator.
func (g *TraceGen) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if g.idx >= len(g.tr.Records) {
		return false
	}
	rec := g.tr.Records[g.idx]
	if rec.Cycle > cycle {
		return false
	}
	g.idx++
	*d = Demand{Dst: rec.Dst, Len: rec.Len}
	return true
}

// Sleep implements Generator: until the next record's cycle arrives,
// Step is a stateless no-op.
func (g *TraceGen) Sleep(cycle uint64) (uint64, bool) {
	if g.idx >= len(g.tr.Records) {
		return 0, false
	}
	next := g.tr.Records[g.idx].Cycle
	if next <= cycle+1 {
		return 0, false
	}
	return next - cycle - 1, true
}

// SkipSteps implements Generator; waiting consumes no state.
func (g *TraceGen) SkipSteps(n uint64) {}
