package traffic

import (
	"fmt"

	"nocemu/internal/state"
)

// Parameterized is implemented by generators whose model parameters are
// exposed as numbered 32-bit registers — the paper's "bench of
// registers for traffic parameterization". Register semantics are
// model-specific; ParamNames documents them in order.
type Parameterized interface {
	// ParamNames returns the register names, index-aligned.
	ParamNames() []string
	// ReadParam returns parameter i (false if out of range).
	ReadParam(i uint32) (uint32, bool)
	// WriteParam stores parameter i, rejecting values that would break
	// model invariants against the current values of the others.
	WriteParam(i uint32, v uint32) bool
}

// param is one parameter register: its name — the key of the model's
// JSON object — and the configuration field behind it.
type param[C any] struct {
	name string
	get  func(*C) uint32
	set  func(*C, uint32) bool // false when the value does not fit
}

// reg declares a register backed by a 16- or 32-bit field of C.
func reg[C any, F uint16 | uint32](name string, field func(*C) *F) param[C] {
	return param[C]{
		name: name,
		get:  func(c *C) uint32 { return uint32(*field(c)) },
		set: func(c *C, v uint32) bool {
			if uint32(F(v)) != v {
				return false
			}
			*field(c) = F(v)
			return true
		},
	}
}

// registers is a model's one declaration of its parameter registers:
// the registers in PARAM-window order, which is also their snapshot
// order, and the invariant every configuration of the model satisfies.
// One package-level declaration serves every instance of the model.
type registers[C any] struct {
	params []param[C]
	check  func(*C) error
}

// bank is the half every stochastic model shares: the live
// configuration, its declaration, and the destination chooser. The
// declaration alone validates the configuration at construction, on a
// register write and on snapshot restore, so a model's own code keeps
// only its progress state. Embedding a bank makes a model
// Parameterized; the configuration's Model names it.
type bank[C interface{ Model() string }] struct {
	cfg  C
	regs *registers[C]
	dst  *dstChooser
}

// init validates cfg against the declaration and builds the
// destination chooser.
func (b *bank[C]) init(regs *registers[C], cfg C, dst DstConfig) (err error) {
	b.cfg, b.regs = cfg, regs
	if err = regs.check(&b.cfg); err != nil {
		return err
	}
	b.dst, err = newDstChooser(dst)
	return err
}

// ModelName implements Generator.
func (b *bank[C]) ModelName() string { return b.cfg.Model() }

// Exhausted implements Generator: a stochastic model never ends.
func (b *bank[C]) Exhausted() bool { return false }

// ParamNames implements Parameterized.
func (b *bank[C]) ParamNames() []string {
	names := make([]string, len(b.regs.params))
	for i, p := range b.regs.params {
		names[i] = p.name
	}
	return names
}

// ReadParam implements Parameterized.
func (b *bank[C]) ReadParam(i uint32) (uint32, bool) {
	if i >= uint32(len(b.regs.params)) {
		return 0, false
	}
	return b.regs.params[i].get(&b.cfg), true
}

// WriteParam implements Parameterized: a write the field cannot hold,
// or that leaves the model's invariant broken, is rolled back.
func (b *bank[C]) WriteParam(i uint32, v uint32) bool {
	if i >= uint32(len(b.regs.params)) {
		return false
	}
	old := b.cfg
	if !b.regs.params[i].set(&b.cfg, v) || b.regs.check(&b.cfg) != nil {
		b.cfg = old
		return false
	}
	return true
}

// saveParams serializes the parameter registers in declaration order
// (a 16-bit field encodes as the same varint as a 32-bit one).
func (b *bank[C]) saveParams(w *state.Writer) {
	for _, p := range b.regs.params {
		w.U32(p.get(&b.cfg))
	}
}

// loadParams restores the parameter registers under the same rule as
// WriteParam, so a snapshot cannot carry a parameterization the
// register interface would have rejected.
func (b *bank[C]) loadParams(r *state.Reader) error {
	old := b.cfg
	for _, p := range b.regs.params {
		if v := r.U32(); !p.set(&b.cfg, v) {
			b.cfg = old
			return fmt.Errorf("traffic: snapshot %s = %d overflows its register", p.name, v)
		}
	}
	err := r.Err()
	if err == nil {
		err = b.regs.check(&b.cfg)
	}
	if err != nil {
		b.cfg = old
	}
	return err
}

// ParamNames implements Parameterized for trace replay (read-only
// position information).
func (g *TraceGen) ParamNames() []string { return []string{"remaining"} }

// ReadParam implements Parameterized.
func (g *TraceGen) ReadParam(i uint32) (uint32, bool) {
	if i == 0 {
		return uint32(g.Remaining()), true
	}
	return 0, false
}

// WriteParam implements Parameterized; trace positions are not
// writable.
func (g *TraceGen) WriteParam(i uint32, v uint32) bool { return false }
