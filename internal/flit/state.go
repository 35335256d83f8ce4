// Snapshot support for the flit layer (DESIGN.md §13).
//
// Flits are serialized as value images of their exported fields by the
// component that holds them (a FIFO slot, a link register, a NIC ring);
// the private pooling links (next, pooled) are identity, not state, and
// are never written. Restore materializes each image as a fresh heap
// flit via LoadFlit: the pool's freelists are deliberately dropped on
// restore (the garbage collector reclaims them) while the shard ledger
// counters — which already include every live flit — are restored
// verbatim, so Pool.Live stays exact and a drained platform still
// audits to zero. A materialized flit has pooled=false, exactly like a
// freshly allocated one, so its eventual Release routes through the
// source endpoint's shard as usual and the pool repopulates itself.
package flit

import (
	"cmp"
	"fmt"
	"slices"

	"nocemu/internal/state"
)

// SaveState serializes the flit image (exported fields only).
func (f *Flit) SaveState(w *state.Writer) {
	w.U8(uint8(f.Kind))
	w.U64(uint64(f.Packet))
	w.U16(uint16(f.Src))
	w.U16(uint16(f.Dst))
	w.U16(f.Index)
	w.U16(f.PacketLen)
	w.U32(f.Payload)
	w.U64(f.InjectCycle)
	w.U64(f.BirthCycle)
	w.U16(f.Check)
	w.U8(f.VC)
}

// LoadState restores the flit image in place (pooling links untouched).
func (f *Flit) LoadState(r *state.Reader) error {
	f.Kind = Kind(r.U8())
	f.Packet = PacketID(r.U64())
	f.Src = EndpointID(r.U16())
	f.Dst = EndpointID(r.U16())
	f.Index = r.U16()
	f.PacketLen = r.U16()
	f.Payload = r.U32()
	f.InjectCycle = r.U64()
	f.BirthCycle = r.U64()
	f.Check = r.U16()
	f.VC = r.U8()
	return r.Err()
}

// SaveFlit writes an optional flit slot: a presence flag, then the
// image. Holders with nullable slots (link registers, ring entries)
// serialize through it.
func SaveFlit(w *state.Writer, f *Flit) {
	if f == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	f.SaveState(w)
}

// LoadFlit reads an optional flit slot, materializing a fresh heap
// flit for a present image (nil for an absent one).
func LoadFlit(r *state.Reader) (*Flit, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	f := &Flit{}
	if err := f.LoadState(r); err != nil {
		return nil, err
	}
	return f, nil
}

// SaveState serializes the partial-assembly table in packet-ID order,
// the order the assembler keeps it in.
func (a *Assembler) SaveState(w *state.Writer) {
	w.Int(len(a.partial))
	for _, st := range a.partial {
		w.U64(uint64(st.id))
		w.U16(st.got)
		w.U16(st.want)
	}
}

// LoadState restores the partial-assembly table. A table naming one
// packet twice is rejected: the assembler cannot tell which record its
// next flit continues.
func (a *Assembler) LoadState(r *state.Reader) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 {
		return fmt.Errorf("flit: assembler with %d partial packets", n)
	}
	a.partial = a.partial[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		a.partial = append(a.partial, assembly{id: PacketID(r.U64()), got: r.U16(), want: r.U16()})
	}
	if err := r.Err(); err != nil {
		return err
	}
	slices.SortFunc(a.partial, func(x, y assembly) int { return cmp.Compare(x.id, y.id) })
	for i := 1; i < len(a.partial); i++ {
		if a.partial[i].id == a.partial[i-1].id {
			id := a.partial[i].id
			a.partial = a.partial[:0]
			return fmt.Errorf("flit: assembler snapshot holds packet %d twice", id)
		}
	}
	return nil
}

// SaveState serializes the shard ledger. The freelists and return ramp
// are not state: they hold recycled capacity, and restore re-grows
// them on demand.
func (s *Shard) SaveState(w *state.Writer) {
	w.String(s.name)
	w.U16(uint16(s.owner))
	w.U64(s.acquired)
	w.U64(s.allocated)
	w.U64(s.released.Load())
}

// LoadState restores the shard ledger, dropping any pooled flits: live
// flits are rematerialized by their holders, so the saved counters stay
// exact without them.
func (s *Shard) LoadState(r *state.Reader) error {
	name := r.String()
	owner := EndpointID(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	if name != s.name || owner != s.owner {
		return fmt.Errorf("flit: snapshot shard %q/ep%d, built %q/ep%d", name, owner, s.name, s.owner)
	}
	s.free, s.held = nil, nil
	s.ramp.Store(nil)
	s.acquired = r.U64()
	s.allocated = r.U64()
	s.released.Store(r.U64())
	return r.Err()
}

// SaveState serializes the pool: every endpoint shard in creation
// order, then the orphan ledger.
func (p *Pool) SaveState(w *state.Writer) {
	w.Int(len(p.shards))
	for _, s := range p.shards {
		s.SaveState(w)
	}
	w.U64(p.orphan.acquired)
	w.U64(p.orphan.allocated)
	w.U64(p.orphan.released.Load())
}

// LoadState restores the pool. The shard population is construction
// state and must match the snapshot's.
func (p *Pool) LoadState(r *state.Reader) error {
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n != len(p.shards) {
		return fmt.Errorf("flit: snapshot has %d shards, pool has %d", n, len(p.shards))
	}
	for _, s := range p.shards {
		if err := s.LoadState(r); err != nil {
			return err
		}
	}
	p.orphan.free, p.orphan.held = nil, nil
	p.orphan.ramp.Store(nil)
	p.orphan.acquired = r.U64()
	p.orphan.allocated = r.U64()
	p.orphan.released.Store(r.U64())
	return r.Err()
}
