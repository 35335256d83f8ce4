package probe

// rec is the stored form of an Event: same fields, except the
// component name is an index into the Collector's interned name table
// (for ring-drained events the index is the ring id). Keeping the
// retained log pointer-free means growing it neither zeroes fresh
// capacity nor adds GC scan work — the dominant costs of a large
// in-memory trace.
type rec struct {
	Cycle uint64
	Pkt   uint64
	Val   uint64
	Ring  uint32
	Port  uint32
	Comp  uint32
	Src   uint16
	Dst   uint16
	Idx   uint16
	VC    uint16
	Kind  Kind
}

// recOf converts a freshly emitted event, stamping ring id and comp
// index.
func recOf(ev Event, ringID, compIdx uint32) rec {
	return rec{
		Cycle: ev.Cycle, Pkt: ev.Pkt, Val: ev.Val,
		Ring: ringID, Port: ev.Port, Comp: compIdx,
		Src: ev.Src, Dst: ev.Dst, Idx: ev.Idx, VC: ev.VC,
		Kind: ev.Kind,
	}
}

// ring is a fixed-capacity event buffer with exactly one producer (the
// emitting component, always evaluated by a single worker within a
// cycle) and one consumer (the Collector, draining in a serialized
// window). Producer and consumer never run concurrently — the kernel's
// gate orders them — so no atomics are needed: the buffer is
// ordinary component state, like a FIFO's.
//
// The consumer always drains the ring completely, so the buffer is a
// plain append vector, not a circular queue. Overflow drops the event
// and counts it; with emit-time collector arming the ring is drained
// within a cycle or two of filling, so drops indicate a capacity
// misconfiguration, not normal operation.
type ring struct {
	id      uint32
	comp    string
	buf     []rec
	n       int
	dropped uint64
}

// emit appends one event, stamping the ring id (which doubles as the
// interned component-name index).
func (r *ring) emit(ev Event) {
	if r.n == len(r.buf) {
		r.dropped++
		return
	}
	r.buf[r.n] = recOf(ev, r.id, r.id)
	r.n++
}

// drainInto appends the ring's events to out and empties the ring.
func (r *ring) drainInto(out []rec) []rec {
	out = append(out, r.buf[:r.n]...)
	r.n = 0
	return out
}
