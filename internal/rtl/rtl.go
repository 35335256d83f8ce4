// Package rtl models the emulated NoC at register-transfer level on the
// event-driven kernel of internal/eventsim — the stand-in for the
// paper's "Verilog (ModelSim)" baseline in Table 2.
//
// Every port of every device is a set of HDL-style signals (a
// sequence-tagged flit token and a cumulative credit counter); every
// device is a clocked process on the kernel's sensitivity machinery.
// Each emulated cycle therefore costs calendar events, delta cycles and
// dynamic activations per signal — the overhead the FPGA emulator (and
// our static one-pass engine) avoids, and the reason the paper sees
// four orders of magnitude between the two.
//
// The devices implement the same transfer semantics as the fast
// backend (1-cycle registered links, buffered inputs, wormhole locks,
// credit flow control), and reuse the same traffic generators and
// seeds, so for a given configuration both backends deliver identical
// packet counts — verified by integration test.
package rtl

import (
	"fmt"

	"nocemu/internal/arb"
	"nocemu/internal/eventsim"
	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// FlitTok is the value of a flit wire: a pointer tagged with a send
// sequence number so receivers detect new transfers on an otherwise
// unchanged-looking wire.
type FlitTok struct {
	F   *flit.Flit
	Seq uint64
}

// port is one directed flit channel between two devices.
type port struct {
	flitSig *eventsim.Signal[FlitTok]
	credSig *eventsim.Signal[uint64] // cumulative credits returned
}

func newPort(k *eventsim.Kernel, name string) *port {
	return &port{
		flitSig: eventsim.NewSignal(k, name+".flit", FlitTok{}),
		credSig: eventsim.NewSignal(k, name+".credit", uint64(0)),
	}
}

// regBank models one register bank of a device and the combinational
// cone its outputs drive. In an event-driven RTL simulation every
// flip-flop update is a scheduled signal event, and every change
// re-evaluates the logic cone fed by that register, scheduling the
// cone's own next-state updates. The monolithic device processes in
// this package keep the *behaviour* in one place (so results stay
// bit-identical with the emulator); the register banks account for the
// per-state-element event traffic a netlist-level simulation pays.
type regBank struct {
	state *eventsim.Signal[uint64]
	cone  *eventsim.Signal[uint64]
	cone2 *eventsim.Signal[uint64]
}

func newRegBank(k *eventsim.Kernel, name string) *regBank {
	rb := &regBank{
		state: eventsim.NewSignal(k, name+".q", uint64(0)),
		cone:  eventsim.NewSignal(k, name+".cone", uint64(0)),
		cone2: eventsim.NewSignal(k, name+".cone2", uint64(0)),
	}
	// First logic level fed by the register outputs.
	p1 := k.NewProcess(name+".cone", func() {
		rb.cone.WriteAfter(rb.state.Read()*0x9E3779B97F4A7C15+1, 1)
	})
	rb.state.Sensitize(p1)
	// Second logic level fed by the first.
	p2 := k.NewProcess(name+".cone2", func() {
		rb.cone2.WriteAfter(rb.cone.Read()^rb.cone.Read()>>7, 1)
	})
	rb.cone.Sensitize(p2)
	return rb
}

// set schedules the bank's clock-to-Q update.
func (rb *regBank) set(v uint64) { rb.state.WriteAfter(v, 1) }

// txState is the sender-side view of a port.
type txState struct {
	p        *port
	seq      uint64
	credits  int
	credSeen uint64
}

func newTx(p *port, initialCredits int) *txState {
	return &txState{p: p, credits: initialCredits}
}

func (t *txState) collect() {
	cur := t.p.credSig.Read()
	t.credits += int(cur - t.credSeen)
	t.credSeen = cur
}

func (t *txState) canSend() bool { return t.credits > 0 }

func (t *txState) send(f *flit.Flit) {
	t.seq++
	// Clock-to-Q: the port register updates one delay after the edge.
	t.p.flitSig.WriteAfter(FlitTok{F: f, Seq: t.seq}, 1)
	t.credits--
}

// rxState is the receiver-side view of a port.
type rxState struct {
	p        *port
	lastSeq  uint64
	returned uint64
}

func newRx(p *port) *rxState { return &rxState{p: p} }

// sample returns the newly arrived flit, if any.
func (r *rxState) sample() *flit.Flit {
	tok := r.p.flitSig.Read()
	if tok.Seq == r.lastSeq {
		return nil
	}
	if tok.Seq != r.lastSeq+1 {
		panic(fmt.Sprintf("rtl: flit wire %s skipped from %d to %d", r.p.flitSig.Name(), r.lastSeq, tok.Seq))
	}
	r.lastSeq = tok.Seq
	return tok.F
}

// credit returns n credits to the sender.
func (r *rxState) credit(n uint64) {
	r.returned += n
	r.p.credSig.WriteAfter(r.returned, 1)
}

// rtlFIFO is a plain ring buffer with the registered-read semantics of
// the fast backend: entries pushed in cycle n are poppable from n+1.
type rtlFIFO struct {
	items []*flit.Flit
	fresh []bool
	head  int
	size  int
}

func newRTLFIFO(depth int) *rtlFIFO {
	return &rtlFIFO{items: make([]*flit.Flit, depth), fresh: make([]bool, depth)}
}

func (q *rtlFIFO) push(f *flit.Flit) {
	if q.size >= len(q.items) {
		panic("rtl: fifo overflow (credit protocol violated)")
	}
	i := (q.head + q.size) % len(q.items)
	q.items[i] = f
	q.fresh[i] = true
	q.size++
}

// age clears the freshness marks; call at the start of each cycle so
// last cycle's arrivals become visible.
func (q *rtlFIFO) age() {
	for i := 0; i < q.size; i++ {
		q.fresh[(q.head+i)%len(q.items)] = false
	}
}

func (q *rtlFIFO) peek() *flit.Flit {
	if q.size == 0 || q.fresh[q.head] {
		return nil
	}
	return q.items[q.head]
}

func (q *rtlFIFO) pop() *flit.Flit {
	f := q.peek()
	if f == nil {
		return nil
	}
	q.items[q.head] = nil
	q.head = (q.head + 1) % len(q.items)
	q.size--
	return f
}

// rtlSwitch is the RTL switch process state.
type rtlSwitch struct {
	node    topology.NodeID
	table   *routing.Table
	sel     routing.Policy
	lfsr    *rng.LFSR
	inBufs  []*rtlFIFO
	inRx    []*rxState
	inRoute []int
	outTx   []*txState
	lock    []int
	arbs    []arb.Arbiter

	flitsRouted uint64
	occBanks    []*regBank // input buffer occupancy registers
	credBanks   []*regBank // output credit counters
	lockBank    *regBank   // wormhole lock / route state registers
	statBank    *regBank   // statistics counters
}

// onEdge is the switch's clocked behaviour.
func (s *rtlSwitch) onEdge() {
	for _, q := range s.inBufs {
		q.age()
	}
	for _, tx := range s.outTx {
		tx.collect()
	}
	// Route computation.
	for i, q := range s.inBufs {
		f := q.peek()
		if f == nil || s.inRoute[i] != -1 {
			continue
		}
		if !f.Kind.IsHead() {
			panic("rtl: unrouted non-head flit at buffer head")
		}
		cands, err := s.table.Lookup(s.node, f.Dst)
		if err != nil {
			panic(err)
		}
		s.inRoute[i] = s.selectPort(cands, f)
	}
	// Per-output forwarding. An input requests the output it is routed
	// to while it has a flit to send; an input forwards at most once per
	// edge, through that one output, so the masks hold for the whole edge.
	words := arb.Words(len(s.inBufs))
	req := make([]uint64, len(s.outTx)*words)
	for i, q := range s.inBufs {
		if s.inRoute[i] >= 0 && q.peek() != nil {
			req[s.inRoute[i]*words+i>>6] |= 1 << (i & 63)
		}
	}
	for o, tx := range s.outTx {
		var winner int
		if s.lock[o] >= 0 {
			winner = s.lock[o]
			if s.inBufs[winner].peek() == nil {
				continue
			}
		} else {
			w, ok := s.arbs[o].Grant(req[o*words : (o+1)*words])
			if !ok {
				continue
			}
			winner = w
		}
		if !tx.canSend() {
			continue
		}
		f := s.inBufs[winner].pop()
		tx.send(f)
		s.inRx[winner].credit(1)
		s.flitsRouted++
		if f.Kind.IsTail() {
			s.lock[o] = -1
			s.inRoute[winner] = -1
		} else {
			s.lock[o] = winner
		}
	}
	// Accept arrivals last: they become forwardable next edge.
	for i, rx := range s.inRx {
		if f := rx.sample(); f != nil {
			s.inBufs[i].push(f)
		}
	}
	// Register-bank updates: every state element that changed this edge
	// schedules its clock-to-Q event and re-evaluates its logic cone.
	for i, q := range s.inBufs {
		s.occBanks[i].set(uint64(q.size))
	}
	for o, tx := range s.outTx {
		s.credBanks[o].set(uint64(tx.credits))
	}
	var lockState uint64
	for o, l := range s.lock {
		lockState = lockState<<8 | uint64(uint8(l+1))<<uint(o%2)
	}
	for _, r := range s.inRoute {
		lockState = lockState*31 + uint64(uint8(r+1))
	}
	s.lockBank.set(lockState)
	s.statBank.set(s.flitsRouted)
}

func (s *rtlSwitch) selectPort(cands []int, f *flit.Flit) int {
	if len(cands) == 1 {
		return cands[0]
	}
	switch s.sel {
	case routing.PacketModulo:
		return cands[int(f.Packet.Seq())%len(cands)]
	case routing.Random:
		return cands[s.lfsr.Intn(len(cands))]
	default:
		return cands[0]
	}
}

// rtlTG is the RTL traffic-generator process state.
type rtlTG struct {
	gen        traffic.Generator
	lfsr       *rng.LFSR
	limit      uint64
	offered    uint64
	pending    traffic.Demand
	hasPending bool
	// queue is a fixed ring of maxQ flit slots, mirroring the source
	// queue RAM of the emulated hardware (popped slots are cleared, so
	// the backing array never regrows or retains dead pointers).
	queue  []*flit.Flit
	qHead  int
	qCount int
	maxQ   int
	seq    uint64
	ep     flit.EndpointID
	tx     *txState
	cycle  uint64

	packetsSent uint64
	flitsSent   uint64
	queueBank   *regBank // source queue pointers
	statBank    *regBank // sent counters
}

func (t *rtlTG) onEdge() {
	t.tx.collect()
	limited := t.limit > 0 && t.offered >= t.limit
	if !t.hasPending && !limited && !t.gen.Exhausted() {
		if t.gen.Step(t.cycle, t.lfsr, &t.pending) {
			t.hasPending = true
			t.offered++
		}
	}
	if t.hasPending && t.qCount+int(t.pending.Len) <= t.maxQ {
		p := flit.Packet{
			ID:         flit.MakePacketID(t.ep, t.seq),
			Src:        t.ep,
			Dst:        t.pending.Dst,
			Len:        t.pending.Len,
			Payload:    t.pending.Payload,
			BirthCycle: t.cycle,
		}
		t.seq++
		for i := uint16(0); i < p.Len; i++ {
			f := &flit.Flit{}
			p.Fill(f, i)
			t.queue[(t.qHead+t.qCount)%len(t.queue)] = f
			t.qCount++
		}
		t.hasPending = false
	}
	if t.qCount > 0 && t.tx.canSend() {
		f := t.queue[t.qHead]
		t.queue[t.qHead] = nil
		t.qHead = (t.qHead + 1) % len(t.queue)
		t.qCount--
		f.InjectCycle = t.cycle
		t.tx.send(f)
		t.flitsSent++
		if f.Kind.IsTail() {
			t.packetsSent++
		}
	}
	t.queueBank.set(uint64(t.qCount))
	t.statBank.set(t.flitsSent)
	t.cycle++
}

func (t *rtlTG) done() bool {
	limited := t.limit > 0 && t.offered >= t.limit
	return (limited || t.gen.Exhausted()) && !t.hasPending && t.qCount == 0
}

// rtlTR is the RTL receptor process state.
type rtlTR struct {
	ep  flit.EndpointID
	rx  *rxState
	buf *rtlFIFO
	asm *flit.Assembler

	packets uint64
	flits   uint64
	cycle   uint64
	active  bool
	rtBank  *regBank // running-time counter (counts every active cycle)
	cntBank *regBank // packet/flit counters
}

func (t *rtlTR) onEdge() {
	t.buf.age()
	if f := t.buf.pop(); f != nil {
		t.rx.credit(1)
		t.flits++
		t.active = true
		if f.Dst != t.ep {
			panic("rtl: misrouted flit at receptor")
		}
		_, done, err := t.asm.Push(f)
		if err != nil {
			panic(err)
		}
		if done {
			t.packets++
		}
	}
	if f := t.rx.sample(); f != nil {
		t.buf.push(f)
	}
	if t.active {
		// The running-time register increments every active cycle.
		t.rtBank.set(t.cycle)
	}
	t.cntBank.set(t.flits<<20 | t.packets)
	t.cycle++
}
