// Package flit defines the flow-control units (flits) and packets that
// travel through the emulated network-on-chip.
//
// The paper's network interfaces "convert a traffic pattern in flits for
// NoC"; a packet is framed as one head flit, zero or more body flits and
// one tail flit (a single-flit packet is marked both head and tail).
// Every flit carries the identifiers and timestamps the traffic receptors
// need for latency analysis.
package flit

import "fmt"

// Kind identifies the position of a flit inside its packet.
type Kind uint8

const (
	// Head is the first flit of a packet; it carries routing information.
	Head Kind = iota + 1
	// Body is an intermediate flit.
	Body
	// Tail is the last flit of a packet; it releases wormhole locks.
	Tail
	// HeadTail marks a single-flit packet (head and tail at once).
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsHead reports whether the flit opens a packet.
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit closes a packet.
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// EndpointID identifies a traffic generator or receptor attached to the
// network. Endpoint identifiers are global across the platform.
type EndpointID uint16

// PacketID identifies a packet uniquely within one emulation run.
// The high bits carry the source endpoint so that identifiers from
// different generators never collide.
type PacketID uint64

// MakePacketID builds a globally unique packet identifier from a source
// endpoint and the source-local packet sequence number.
func MakePacketID(src EndpointID, seq uint64) PacketID {
	return PacketID(uint64(src)<<48 | seq&(1<<48-1))
}

// Src extracts the source endpoint encoded in the identifier.
func (id PacketID) Src() EndpointID { return EndpointID(id >> 48) }

// Seq extracts the source-local sequence number.
func (id PacketID) Seq() uint64 { return uint64(id) & (1<<48 - 1) }

// Flit is one flow-control unit. Flits are passed by pointer through the
// network; a flit must not be mutated after injection except for the
// bookkeeping fields owned by the receptors.
type Flit struct {
	// Kind is the position of this flit in its packet.
	Kind Kind
	// Packet is the unique identifier of the owning packet.
	Packet PacketID
	// Src is the generating endpoint.
	Src EndpointID
	// Dst is the destination endpoint.
	Dst EndpointID
	// Index is the 0-based position of this flit inside the packet.
	Index uint16
	// PacketLen is the total number of flits in the packet.
	PacketLen uint16
	// Payload carries one payload word (the emulator does not interpret
	// it; trace-driven generators use it to carry trace markers).
	Payload uint32
	// InjectCycle is the cycle at which the head flit entered the
	// network interface queue (set by the NIC, used for latency).
	InjectCycle uint64
	// BirthCycle is the cycle at which the packet was created by its
	// generator (set by the TG; includes source queueing delay).
	BirthCycle uint64
	// Check is the integrity code the injecting network interface
	// stamps over the flit's identity and payload (a CRC-16-class
	// field); ejectors recompute it to detect in-flight corruption
	// (fault injection).
	Check uint16
	// VC is the virtual-channel tag of the current hop; the sending
	// port rewrites it at each traversal (used only by the
	// virtual-channel switch extension, zero elsewhere).
	VC uint8

	// next links the flit into its pool shard's freelist while the flit
	// is released; it is meaningless (and unused) while the flit is live
	// in the network.
	next *Flit
	// freed is the cycle the flit was last released in: its shard
	// reuses it from the next cycle on, whichever worker released it.
	freed uint64
	// pooled marks a flit currently owned by the pool, so a double
	// release is caught as an invariant violation instead of corrupting
	// the freelist.
	pooled bool
}

// Checksum computes the flit's integrity code from the fields a link
// fault could plausibly disturb.
func (f *Flit) Checksum() uint16 {
	h := uint64(f.Packet) ^ uint64(f.Index)<<17 ^ uint64(f.Payload)<<3 ^ uint64(f.Kind)<<41
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return uint16(h >> 48)
}

// String implements fmt.Stringer for debugging output.
func (f *Flit) String() string {
	return fmt.Sprintf("%s pkt=%d src=%d dst=%d %d/%d",
		f.Kind, f.Packet, f.Src, f.Dst, f.Index+1, f.PacketLen)
}

// Validate checks the structural invariants of a single flit.
func (f *Flit) Validate() error {
	switch {
	case f == nil:
		return fmt.Errorf("flit: nil")
	case f.Kind < Head || f.Kind > HeadTail:
		return fmt.Errorf("flit: invalid kind %d", f.Kind)
	case f.PacketLen == 0:
		return fmt.Errorf("flit: zero packet length")
	case f.Index >= f.PacketLen:
		return fmt.Errorf("flit: index %d out of range (len %d)", f.Index, f.PacketLen)
	case f.Kind.IsHead() && f.Index != 0:
		return fmt.Errorf("flit: head flit with index %d", f.Index)
	case f.Kind.IsTail() && f.Index != f.PacketLen-1:
		return fmt.Errorf("flit: tail flit at index %d of %d", f.Index, f.PacketLen)
	case f.Kind == HeadTail && f.PacketLen != 1:
		return fmt.Errorf("flit: headtail flit in packet of %d flits", f.PacketLen)
	case f.Packet.Src() != f.Src:
		return fmt.Errorf("flit: packet id source %d != src %d", f.Packet.Src(), f.Src)
	}
	return nil
}
