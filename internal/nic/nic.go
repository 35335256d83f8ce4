// Package nic implements the network interfaces of the paper's traffic
// devices: the injector that "converts a traffic pattern in flits for
// the NoC" inside every traffic generator, and the ejector that
// reassembles flits into packets inside every traffic receptor.
//
// Injector and Ejector are not engine components themselves; the owning
// TG/TR drives them from its own Tick, which mirrors the hardware where
// the network interface is a sub-block of the traffic device.
//
// Flit ownership: the injector acquires flits from its pool shard and
// expands packets into them in place; ownership then travels with the
// flit through link, buffer and switch. The ejector is the normal
// terminal point: once a consumed flit's callbacks return, it releases
// the flit back to the pool. Both interfaces accept nil shard/pool and
// then fall back to plain allocation and garbage collection.
package nic

import (
	"fmt"

	"nocemu/internal/buffer"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/probe"
)

// Injector converts packets to flits and injects them into a switch
// input port under credit-based flow control, at most one flit per
// cycle.
type Injector struct {
	endpoint flit.EndpointID
	out      *link.Link
	creditIn *link.CreditLink
	credits  int
	shard    *flit.Shard

	// ring holds flits of accepted packets not yet on the wire, in a
	// fixed-capacity ring: popped slots are cleared, so the queue can
	// neither retain dead flit pointers nor regrow under bursts.
	ring  []*flit.Flit
	head  int
	count int

	seq         uint64
	packetsSent uint64
	flitsSent   uint64
	stallCycles uint64
	peakQueue   int

	// probe records inject and stall events; nil when tracing is off.
	// The owning TG drives Pump, so the probe is single-producer.
	probe *probe.Probe
}

// NewInjector builds an injector for the given endpoint. out carries
// flits to the switch, creditIn returns credits from the switch's input
// buffer, and initialCredits must equal that buffer's depth. maxFlits
// bounds the source queue in flits (>= 1). shard is the flit freelist
// this endpoint acquires from; nil means allocate-and-forget.
func NewInjector(endpoint flit.EndpointID, out *link.Link, creditIn *link.CreditLink, initialCredits, maxFlits int, shard *flit.Shard) (*Injector, error) {
	if out == nil || creditIn == nil {
		return nil, fmt.Errorf("nic: injector %d nil wiring", endpoint)
	}
	if initialCredits < 1 {
		return nil, fmt.Errorf("nic: injector %d with %d credits", endpoint, initialCredits)
	}
	if maxFlits < 1 {
		return nil, fmt.Errorf("nic: injector %d queue of %d flits", endpoint, maxFlits)
	}
	return &Injector{
		endpoint: endpoint,
		out:      out,
		creditIn: creditIn,
		credits:  initialCredits,
		shard:    shard,
		ring:     make([]*flit.Flit, maxFlits),
	}, nil
}

// Endpoint returns the injector's endpoint identifier.
func (n *Injector) Endpoint() flit.EndpointID { return n.endpoint }

// CanAccept reports whether a packet of the given flit length fits in
// the source queue this cycle.
func (n *Injector) CanAccept(length uint16) bool {
	return n.count+int(length) <= len(n.ring)
}

// Offer accepts a packet into the source queue, assigning its sequence
// number and identifier, and expands it in place into pool flits. The
// caller must have checked CanAccept; a full queue returns an error and
// leaves state unchanged.
func (n *Injector) Offer(dst flit.EndpointID, length uint16, payload uint32, birthCycle uint64) (flit.PacketID, error) {
	if length == 0 {
		return 0, fmt.Errorf("nic: injector %d zero-length packet", n.endpoint)
	}
	if !n.CanAccept(length) {
		return 0, fmt.Errorf("nic: injector %d source queue full", n.endpoint)
	}
	p := flit.Packet{
		ID:         flit.MakePacketID(n.endpoint, n.seq),
		Src:        n.endpoint,
		Dst:        dst,
		Len:        length,
		Payload:    payload,
		BirthCycle: birthCycle,
	}
	n.seq++
	for i := uint16(0); i < length; i++ {
		f := n.shard.Acquire(birthCycle)
		p.Fill(f, i)
		n.ring[(n.head+n.count)%len(n.ring)] = f
		n.count++
	}
	if n.count > n.peakQueue {
		n.peakQueue = n.count
	}
	return p.ID, nil
}

// Pump advances the injector one cycle: collect credits, then put the
// next queued flit on the wire if a credit is available. The owning TG
// calls it once per Tick, after generating traffic.
func (n *Injector) Pump(cycle uint64) {
	n.credits += int(n.creditIn.Take(cycle))
	if n.count == 0 {
		return
	}
	if n.credits == 0 || n.out.Busy(cycle) {
		n.stallCycles++
		if n.probe != nil { // the channel is a load away; skip it untraced
			n.probe.CreditStall(cycle, uint16(n.ring[n.head].VC))
		}
		return
	}
	f := n.ring[n.head]
	n.ring[n.head] = nil
	n.head = (n.head + 1) % len(n.ring)
	n.count--
	f.InjectCycle = cycle
	f.Check = f.Checksum()
	if err := n.out.Send(cycle, f); err != nil {
		panic(fmt.Sprintf("nic: injector %d: %v", n.endpoint, err))
	}
	n.credits--
	n.flitsSent++
	if f.Kind.IsTail() {
		n.packetsSent++
	}
	if n.probe != nil {
		n.probe.FlitInject(cycle, uint64(f.Packet), uint16(f.Src), uint16(f.Dst), f.Index)
	}
}

// SkipIdle accounts the k cycles [from, from+k) the owning TG spent
// parked with an empty queue: each skipped Pump would only have
// collected the credits sent the cycle before, all but those sent in
// the last skipped cycle by now (link.CreditLink.TakeBefore).
func (n *Injector) SkipIdle(from, k uint64) {
	n.credits += int(n.creditIn.TakeBefore(from + k - 1))
}

// Drain releases every queued flit through release (end-of-run
// reclamation) and empties the queue. Statistics are untouched.
func (n *Injector) Drain(release func(*flit.Flit)) {
	for ; n.count > 0; n.count-- {
		f := n.ring[n.head]
		n.ring[n.head] = nil
		n.head = (n.head + 1) % len(n.ring)
		if release != nil {
			release(f)
		}
	}
	n.head = 0
}

// InjectorStats is a snapshot of an injector's counters.
type InjectorStats struct {
	PacketsSent uint64
	FlitsSent   uint64
	StallCycles uint64
	QueuedFlits int
	PeakQueue   int
}

// Stats returns the injector counters.
func (n *Injector) Stats() InjectorStats {
	return InjectorStats{
		PacketsSent: n.packetsSent,
		FlitsSent:   n.flitsSent,
		StallCycles: n.stallCycles,
		QueuedFlits: n.count,
		PeakQueue:   n.peakQueue,
	}
}

// Drained reports whether all accepted packets have left the injector.
func (n *Injector) Drained() bool { return n.count == 0 }

// SetProbe attaches the tracing probe (nil disables tracing).
func (n *Injector) SetProbe(p *probe.Probe) { n.probe = p }

// ResetStats clears counters without touching queued flits or credits.
func (n *Injector) ResetStats() {
	n.packetsSent, n.flitsSent, n.stallCycles, n.peakQueue = 0, 0, 0, n.count
}

// Ejector receives flits from a switch output port into a small FIFO,
// returns one credit per consumed flit, and reassembles packets. The
// owning TR drives it once per Tick and receives completed packets
// through the callback. The FIFO acts within the cycle: Pump consumes
// the head present at the start of the cycle before it pushes the
// arrival, so a flit is never consumed in the cycle it arrives.
// Consumed flits are released back to the pool once the callbacks
// return; callbacks must keep flit and packet values, not the pointers.
type Ejector struct {
	endpoint flit.EndpointID
	in       *link.Link
	creditUp *link.CreditLink
	buf      *buffer.FIFO
	asm      *flit.Assembler
	pool     *flit.Pool

	flitsReceived  uint64
	corruptedFlits uint64

	// probe records eject and credit-grant events; nil when tracing is
	// off. The owning TR drives Pump, so the probe is single-producer.
	probe *probe.Probe
}

// NewEjector builds an ejector with the given input buffer depth. The
// switch output feeding it must be wired with initialCredits == depth.
// pool receives consumed flits; nil leaves them to the garbage
// collector.
func NewEjector(endpoint flit.EndpointID, in *link.Link, creditUp *link.CreditLink, depth int, pool *flit.Pool) (*Ejector, error) {
	if in == nil || creditUp == nil {
		return nil, fmt.Errorf("nic: ejector %d nil wiring", endpoint)
	}
	if depth < 1 {
		return nil, fmt.Errorf("nic: ejector %d depth %d", endpoint, depth)
	}
	return &Ejector{
		endpoint: endpoint,
		in:       in,
		creditUp: creditUp,
		buf:      buffer.MustNew(fmt.Sprintf("ej%d", endpoint), depth),
		asm:      flit.NewAssembler(),
		pool:     pool,
	}, nil
}

// Endpoint returns the ejector's endpoint identifier.
func (e *Ejector) Endpoint() flit.EndpointID { return e.endpoint }

// Pump advances the ejector one cycle: consume the buffered head flit,
// return a credit for it and invoke onFlit (always) and onPacket (when
// the flit completes a packet); then push the arriving flit and count
// the cycle. Callbacks may be nil. The consumed flit is released to the
// pool after the callbacks return; the packet passed to onPacket is
// assembler scratch, valid only during the call.
func (e *Ejector) Pump(cycle uint64, onFlit func(*flit.Flit), onPacket func(*flit.Packet, *flit.Flit)) {
	if f := e.buf.Pop(); f != nil {
		e.consume(cycle, f, onFlit, onPacket)
	}
	if f := e.in.Take(cycle); f != nil {
		if err := e.buf.Push(f); err != nil {
			panic(fmt.Sprintf("nic: ejector %d: %v", e.endpoint, err))
		}
		if e.probe != nil {
			e.probe.FlitBuffer(cycle, uint64(f.Packet), e.buf.Len())
		}
	}
	e.buf.EndCycle()
}

// consume delivers one flit popped from the buffer.
func (e *Ejector) consume(cycle uint64, f *flit.Flit, onFlit func(*flit.Flit), onPacket func(*flit.Packet, *flit.Flit)) {
	e.creditUp.Send(cycle, 1)
	e.flitsReceived++
	corrupted := f.Check != f.Checksum()
	if corrupted {
		e.corruptedFlits++
	}
	if e.probe != nil {
		e.probe.CreditGrant(cycle)
		e.probe.FlitEject(cycle, uint64(f.Packet), uint16(f.Src), uint16(f.Dst), f.Index, corrupted)
	}
	if f.Dst != e.endpoint {
		panic(fmt.Sprintf("nic: ejector %d received flit for %d (misroute)", e.endpoint, f.Dst))
	}
	if onFlit != nil {
		onFlit(f)
	}
	pkt, done, err := e.asm.Push(f)
	if err != nil {
		panic(fmt.Sprintf("nic: ejector %d: %v", e.endpoint, err))
	}
	if done && onPacket != nil {
		onPacket(pkt, f)
	}
	e.pool.Release(f, cycle)
}

// Idle reports the ejector's quiescence condition after the given
// cycle: no flit on the input wire for the next one and an empty
// reassembly buffer — a Pump would do nothing.
func (e *Ejector) Idle(cycle uint64) bool { return e.in.Peek(cycle+1) == nil && e.buf.Empty() }

// SkipIdle accounts n skipped idle cycles: only the buffer's occupancy
// statistics advance while the ejector is quiet.
func (e *Ejector) SkipIdle(n uint64) { e.buf.SkipIdle(n) }

// Drain releases the buffered flits through release and abandons
// partial reassemblies (end-of-run reclamation).
func (e *Ejector) Drain(release func(*flit.Flit)) {
	e.buf.Drain(release)
	e.asm.Reset()
}

// CorruptedFlits returns the number of consumed flits whose integrity
// code did not match (in-flight corruption).
func (e *Ejector) CorruptedFlits() uint64 { return e.corruptedFlits }

// Depth returns the ejector buffer depth (the credits the upstream
// switch output must be initialized with).
func (e *Ejector) Depth() int { return e.buf.Cap() }

// SetProbe attaches the tracing probe (nil disables tracing).
func (e *Ejector) SetProbe(p *probe.Probe) { e.probe = p }
