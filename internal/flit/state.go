// Snapshot support for the flit layer (DESIGN.md §13).
//
// Flits are serialized as value images of their exported fields by the
// component that holds them (a FIFO slot, a link register, a NIC ring);
// the private pooling links (next, pooled) are identity, not state, and
// are never written. Restore materializes each image into a flit the
// holder held before the load (Reuse; flit identity is not state), or a
// fresh heap flit when it held fewer. The pool's freelists are
// deliberately dropped on restore (the garbage collector reclaims them)
// while the shard ledger counters — which already include every live
// flit — are restored verbatim, so Pool.Live stays exact and a drained
// platform still audits to zero. A materialized flit has pooled=false,
// exactly like a freshly allocated one (a held flit is never pooled), so
// its eventual Release routes through the source endpoint's shard as
// usual and the pool repopulates itself.
package flit

import (
	"fmt"

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
// An image that breaks a flit's structural invariants (Validate) is
// rejected: every holder would pass it on to a receiver that panics.
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
	if err := r.Err(); err != nil {
		return err
	}
	return f.Validate()
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

// LoadFlit reads an optional flit slot (nil for an absent image). A
// present image is materialized into spare, a flit its holder owned
// before the load, when there is one, else into a fresh heap flit.
func LoadFlit(r *state.Reader, spare *Flit) (*Flit, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	f := Reuse(spare)
	if err := f.LoadState(r); err != nil {
		return nil, err
	}
	return f, nil
}

// Reuse returns f reset to a fresh flit's zero state, or a new heap
// flit when f is nil. A holder restoring its slots passes the flits it
// held before the load: they are its alone, no pool or other holder
// can reach them, so loading the same images again allocates nothing.
func Reuse(f *Flit) *Flit {
	if f == nil {
		return &Flit{}
	}
	*f = Flit{}
	return f
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

// LoadState restores the partial-assembly table, which must list each
// packet once, in packet-ID order, with some but not all of its flits
// got: a packet named twice is rejected (the assembler cannot tell which
// record its next flit continues), and so is any table SaveState would
// not write.
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
		st := assembly{id: PacketID(r.U64()), got: r.U16(), want: r.U16()}
		var err error
		switch {
		case r.Err() != nil:
		case i > 0 && st.id == a.partial[i-1].id:
			err = fmt.Errorf("flit: assembler snapshot holds packet %d twice", st.id)
		case i > 0 && st.id < a.partial[i-1].id:
			err = fmt.Errorf("flit: assembler snapshot lists packet %d after %d", st.id, a.partial[i-1].id)
		case st.got == 0 || st.got >= st.want:
			err = fmt.Errorf("flit: assembler snapshot has %d of packet %d's %d flits", st.got, st.id, st.want)
		}
		if err != nil {
			a.partial = a.partial[:0]
			return err
		}
		a.partial = append(a.partial, st)
	}
	return r.Err()
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
	name, ok := r.Match(s.name)
	owner := EndpointID(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	if !ok || owner != s.owner {
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
