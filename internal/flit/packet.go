package flit

import (
	"fmt"
	"slices"
)

// Packet describes one packet to be injected by a network interface.
// It is the unit the traffic generators speak; the NIC turns it into
// flits.
type Packet struct {
	// ID is the globally unique packet identifier.
	ID PacketID
	// Src and Dst are the generating and receiving endpoints.
	Src, Dst EndpointID
	// Len is the packet length in flits (>= 1).
	Len uint16
	// Payload is an opaque word replicated into every flit.
	Payload uint32
	// BirthCycle is the cycle the generator created the packet.
	BirthCycle uint64
}

// Validate checks the structural invariants of a packet description.
func (p *Packet) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("packet: nil")
	case p.Len == 0:
		return fmt.Errorf("packet: zero length")
	case p.ID.Src() != p.Src:
		return fmt.Errorf("packet: id source %d != src %d", p.ID.Src(), p.Src)
	}
	return nil
}

// Fill initializes f as flit i of the packet, overwriting every field:
// framing kind, identity, payload, birth cycle. InjectCycle is left
// zero for the NIC to stamp at injection time. This is the in-place
// (allocation-free) counterpart of Flits; injectors expand packets
// directly into pool-acquired flits with it.
func (p *Packet) Fill(f *Flit, i uint16) {
	*f = Flit{
		Kind:       Body,
		Packet:     p.ID,
		Src:        p.Src,
		Dst:        p.Dst,
		Index:      i,
		PacketLen:  p.Len,
		Payload:    p.Payload,
		BirthCycle: p.BirthCycle,
	}
	switch {
	case p.Len == 1:
		f.Kind = HeadTail
	case i == 0:
		f.Kind = Head
	case i == p.Len-1:
		f.Kind = Tail
	}
}

// Flits expands the packet into a freshly allocated flit sequence. A
// zero-length packet is rejected: it would frame no tail flit and jam
// the wormhole pipeline. Hot paths use Fill with pooled flits instead;
// Flits remains for tests and the reference (RTL-like) backends.
func (p *Packet) Flits() ([]*Flit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]*Flit, p.Len)
	for i := range out {
		f := &Flit{}
		p.Fill(f, uint16(i))
		out[i] = f
	}
	return out, nil
}

// Assembler reconstructs packets from a stream of flits arriving at one
// receptor. Wormhole switching guarantees the flits of one packet arrive
// in order on one input, but packets from different sources may
// interleave — one per virtual channel of the ejection port — so the
// assembler keeps its partial packets in a short slice sorted by packet
// identifier.
//
// The assembler retains no flit pointers: every flit's metadata is
// folded into the per-packet progress record as it arrives, so the
// caller may release each flit back to its pool as soon as Push
// returns.
type Assembler struct {
	partial []assembly // sorted by id, no id twice
	scratch Packet
}

type assembly struct {
	id   PacketID
	got  uint16
	want uint16
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Pending reports how many packets are partially assembled.
func (a *Assembler) Pending() int { return len(a.partial) }

// find returns the position of the partial packet id, or where it would
// be inserted. A scan: the slice holds a packet or two.
func (a *Assembler) find(id PacketID) (int, bool) {
	for i := range a.partial {
		if a.partial[i].id >= id {
			return i, a.partial[i].id == id
		}
	}
	return len(a.partial), false
}

// Push adds one flit. When the flit completes a packet, Push returns the
// completed packet description with done=true. The returned packet is a
// scratch value owned by the assembler and is valid only until the next
// Push; callers keep fields, not the pointer. Out-of-order or
// inconsistent flits return an error.
func (a *Assembler) Push(f *Flit) (pkt *Packet, done bool, err error) {
	if err := f.Validate(); err != nil {
		return nil, false, err
	}
	i, ok := a.find(f.Packet)
	st := assembly{id: f.Packet, want: f.PacketLen}
	if ok {
		if f.Kind.IsHead() {
			return nil, false, fmt.Errorf("assembler: duplicate head for packet %d", f.Packet)
		}
		st = a.partial[i]
	} else if !f.Kind.IsHead() {
		return nil, false, fmt.Errorf("assembler: packet %d starts with %s flit", f.Packet, f.Kind)
	}
	if f.Index != st.got {
		return nil, false, fmt.Errorf("assembler: packet %d flit %d arrived, expected %d", f.Packet, f.Index, st.got)
	}
	if f.PacketLen != st.want {
		return nil, false, fmt.Errorf("assembler: packet %d length %d != %d", f.Packet, f.PacketLen, st.want)
	}
	st.got++
	switch {
	case st.got < st.want && ok:
		a.partial[i] = st
		return nil, false, nil
	case st.got < st.want:
		a.partial = slices.Insert(a.partial, i, st)
		return nil, false, nil
	case ok:
		a.partial = slices.Delete(a.partial, i, i+1)
	}
	// Every flit carries the full packet metadata, so the completing
	// (tail) flit reconstructs the description without a retained head.
	a.scratch = Packet{
		ID:         f.Packet,
		Src:        f.Src,
		Dst:        f.Dst,
		Len:        f.PacketLen,
		Payload:    f.Payload,
		BirthCycle: f.BirthCycle,
	}
	return &a.scratch, true, nil
}

// Reset discards all partial assemblies (used by the platform's
// end-of-run drain, which releases in-flight flits and therefore
// abandons packets mid-reassembly).
func (a *Assembler) Reset() { a.partial = a.partial[:0] }
