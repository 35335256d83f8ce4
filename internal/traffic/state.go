// Snapshot support for the traffic-generator layer (DESIGN.md §13).
//
// Generators serialize two kinds of state: the parameter registers that
// software can rewrite at run time through WriteParam, written and
// checked by the model's one declaration (params.go), then progress
// (countdowns, Markov state, trace position, destination rotation).
// Construction-only configuration — destination sets, random phase, the
// trace itself — is not written.
package traffic

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// SaveState serializes the destination-rotation cursor.
func (d *dstChooser) SaveState(w *state.Writer) { w.Int(d.i) }

// LoadState restores the destination-rotation cursor.
func (d *dstChooser) LoadState(r *state.Reader) error {
	i := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if i < 0 || i >= d.cfg.len() {
		return fmt.Errorf("traffic: destination cursor %d of %d", i, d.cfg.len())
	}
	d.i = i
	return nil
}

// SaveState implements Generator.
func (u *Uniform) SaveState(w *state.Writer) {
	u.saveParams(w)
	w.U64(u.wait)
	w.Bool(u.started)
	u.dst.SaveState(w)
}

// LoadState implements Generator.
func (u *Uniform) LoadState(r *state.Reader) error {
	if err := u.loadParams(r); err != nil {
		return err
	}
	u.wait = r.U64()
	u.started = r.Bool()
	return u.dst.LoadState(r)
}

// SaveState implements Generator.
func (b *Burst) SaveState(w *state.Writer) {
	b.saveParams(w)
	w.Bool(b.on)
	w.U64(b.busy)
	b.dst.SaveState(w)
}

// LoadState implements Generator.
func (b *Burst) LoadState(r *state.Reader) error {
	if err := b.loadParams(r); err != nil {
		return err
	}
	b.on = r.Bool()
	b.busy = r.U64()
	return b.dst.LoadState(r)
}

// SaveState implements Generator.
func (p *Poisson) SaveState(w *state.Writer) {
	p.saveParams(w)
	p.dst.SaveState(w)
}

// LoadState implements Generator.
func (p *Poisson) LoadState(r *state.Reader) error {
	if err := p.loadParams(r); err != nil {
		return err
	}
	return p.dst.LoadState(r)
}

// SaveState implements Generator.
func (g *TraceGen) SaveState(w *state.Writer) { w.Int(g.idx) }

// LoadState implements Generator. The trace itself is configuration;
// only the replay position is state.
func (g *TraceGen) LoadState(r *state.Reader) error {
	idx := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if idx < 0 || idx > len(g.tr.Records) {
		return fmt.Errorf("traffic: snapshot trace position %d of %d records", idx, len(g.tr.Records))
	}
	g.idx = idx
	return nil
}

// SaveState serializes the whole TG device: the random registers, the
// generator sub-block, the backpressured demand, the enable and budget
// registers, the counters, and the network interface.
func (t *TG) SaveState(w *state.Writer) {
	t.lfsr.SaveState(w)
	t.gen.SaveState(w)
	w.Bool(t.hasPending)
	w.U16(uint16(t.pending.Dst))
	w.U16(t.pending.Len)
	w.U32(t.pending.Payload)
	w.Bool(t.enabled)
	w.U64(t.cfg.Limit)
	w.U64(t.offered)
	w.U64(t.backCycles)
	t.inj.SaveState(w)
}

// LoadState restores the TG device. A held demand of zero flits, which
// no generator emits, is refused here rather than panicking in the
// injector at the next Tick.
func (t *TG) LoadState(r *state.Reader) error {
	if err := t.lfsr.LoadState(r); err != nil {
		return fmt.Errorf("traffic: TG %s: %w", t.cfg.Name, err)
	}
	if err := t.gen.LoadState(r); err != nil {
		return fmt.Errorf("traffic: TG %s: %w", t.cfg.Name, err)
	}
	t.hasPending = r.Bool()
	t.pending.Dst = flit.EndpointID(r.U16())
	t.pending.Len = r.U16()
	t.pending.Payload = r.U32()
	if t.hasPending && t.pending.Len == 0 && r.Err() == nil {
		return fmt.Errorf("traffic: TG %s: snapshot holds a zero-length pending packet", t.cfg.Name)
	}
	t.enabled = r.Bool()
	t.cfg.Limit = r.U64()
	t.offered = r.U64()
	t.backCycles = r.U64()
	return t.inj.LoadState(r)
}
