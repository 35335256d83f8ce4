package probe

// Probe is a component's handle into the tracing subsystem. A nil
// *Probe is the disabled state: every emit method returns immediately,
// so instrumented components call their probe unconditionally and the
// hooks vanish from the profile when tracing is off.
//
// Each probe owns one ring, written only by the component it was
// issued to (the single-producer invariant the parallel kernel's
// race-freedom rests on). Probes take no locks and allocate nothing.
type Probe struct {
	c *Collector
	r *ring
}

// emit stamps and buffers the event, then arms the collector so the
// sequential gated kernel wakes it this cycle (a no-op when gating is
// off, under the parallel kernel, or when the collector is active).
func (p *Probe) emit(ev Event) {
	if p == nil {
		return
	}
	p.r.emit(ev)
	if p.c.arm != nil {
		p.c.arm()
	}
}

// FlitInject records a flit entering the network at an injector.
func (p *Probe) FlitInject(cycle, pkt uint64, src, dst, idx uint16) {
	p.emit(Event{Cycle: cycle, Kind: KindInject, Pkt: pkt, Src: src, Dst: dst, Idx: idx})
}

// FlitRoute records a switch forwarding a flit from input in to output
// out on virtual channel vc.
func (p *Probe) FlitRoute(cycle, pkt uint64, src, dst, idx, vc uint16, in, out uint32) {
	p.emit(Event{Cycle: cycle, Kind: KindRoute, Pkt: pkt, Src: src, Dst: dst, Idx: idx,
		VC: vc, Port: out, Val: uint64(in)})
}

// FlitBuffer records a buffer push — a switch lane's or an ejector's;
// occ is the occupancy at the end of the cycle.
func (p *Probe) FlitBuffer(cycle, pkt uint64, occ int) {
	p.emit(Event{Cycle: cycle, Kind: KindBuffer, Pkt: pkt, Val: uint64(occ)})
}

// FlitEject records a flit leaving the network at an ejector.
func (p *Probe) FlitEject(cycle, pkt uint64, src, dst, idx uint16, corrupted bool) {
	ev := Event{Cycle: cycle, Kind: KindEject, Pkt: pkt, Src: src, Dst: dst, Idx: idx}
	if corrupted {
		ev.Val = 1
	}
	p.emit(ev)
}

// FlitDrop records a link losing a flit to double occupancy.
func (p *Probe) FlitDrop(cycle, pkt uint64, src, dst, idx uint16) {
	p.emit(Event{Cycle: cycle, Kind: KindDrop, Pkt: pkt, Src: src, Dst: dst, Idx: idx})
}

// CreditGrant records an ejector returning a credit upstream.
func (p *Probe) CreditGrant(cycle uint64) {
	p.emit(Event{Cycle: cycle, Kind: KindCredit})
}

// CreditStall records an injector with a flit ready but no credit or a
// busy output wire.
func (p *Probe) CreditStall(cycle uint64, vc uint16) {
	p.emit(Event{Cycle: cycle, Kind: KindStall, VC: vc})
}

// FaultArm records a fault window opening on the indexed link.
func (p *Probe) FaultArm(cycle uint64, link uint32, mode uint64) {
	p.emit(Event{Cycle: cycle, Kind: KindFaultArm, Port: link, Val: mode})
}

// FaultFire records a link corrupting the identified flit's payload.
func (p *Probe) FaultFire(cycle, pkt uint64, src, dst, idx uint16) {
	p.emit(Event{Cycle: cycle, Kind: KindFaultFire, Pkt: pkt, Src: src, Dst: dst, Idx: idx})
}

// FaultClear records a fault window closing on the indexed link.
func (p *Probe) FaultClear(cycle uint64, link uint32) {
	p.emit(Event{Cycle: cycle, Kind: KindFaultClear, Port: link})
}
