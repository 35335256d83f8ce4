package nic

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/link"
)

func newInjectorPair(t *testing.T, credits, maxFlits int) (*Injector, *link.Link, *link.CreditLink) {
	t.Helper()
	out := link.NewLink("out")
	cr := link.NewCreditLink("cr")
	inj, err := NewInjector(1, out, cr, credits, maxFlits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inj, out, cr
}

func TestNewInjectorValidates(t *testing.T) {
	out := link.NewLink("out")
	cr := link.NewCreditLink("cr")
	if _, err := NewInjector(1, nil, cr, 1, 1, nil); err == nil {
		t.Error("nil out accepted")
	}
	if _, err := NewInjector(1, out, nil, 1, 1, nil); err == nil {
		t.Error("nil credit accepted")
	}
	if _, err := NewInjector(1, out, cr, 0, 1, nil); err == nil {
		t.Error("0 credits accepted")
	}
	if _, err := NewInjector(1, out, cr, 1, 0, nil); err == nil {
		t.Error("0 queue accepted")
	}
}

func TestInjectorOffer(t *testing.T) {
	inj, _, _ := newInjectorPair(t, 4, 8)
	if inj.Endpoint() != 1 {
		t.Errorf("endpoint = %d", inj.Endpoint())
	}
	if _, err := inj.Offer(2, 0, 0, 0); err == nil {
		t.Error("zero-length packet accepted")
	}
	id, err := inj.Offer(2, 3, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if id.Src() != 1 || id.Seq() != 0 {
		t.Errorf("id = %v", id)
	}
	if inj.NextSeq() != 1 {
		t.Errorf("next seq = %d", inj.NextSeq())
	}
	if !inj.CanAccept(5) {
		t.Error("CanAccept(5) false with 5 free slots")
	}
	if inj.CanAccept(6) {
		t.Error("CanAccept(6) true with 5 free slots")
	}
	if _, err := inj.Offer(2, 6, 0, 0); err == nil {
		t.Error("over-capacity packet accepted")
	}
}

func TestInjectorPumpRespectsCredits(t *testing.T) {
	inj, out, cr := newInjectorPair(t, 2, 8)
	if _, err := inj.Offer(2, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	var sent []*flit.Flit
	for c := uint64(0); c < 6; c++ {
		inj.Pump(c)
		if f := out.Take(c); f != nil {
			sent = append(sent, f)
		}
	}
	// Only 2 credits, none returned: exactly 2 flits on the wire.
	if len(sent) != 2 {
		t.Fatalf("sent %d flits, want 2", len(sent))
	}
	st := inj.Stats()
	if st.FlitsSent != 2 || st.PacketsSent != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.StallCycles == 0 {
		t.Error("no stalls recorded while starved of credits")
	}
	// Return credits: the tail goes out and the packet completes.
	cr.Send(6, 2)
	inj.Pump(7)
	if f := out.Take(8); f == nil || !f.Kind.IsTail() {
		t.Fatalf("tail not sent: %v", f)
	}
	if inj.Stats().PacketsSent != 1 {
		t.Error("packet not counted")
	}
	if !inj.Drained() {
		t.Error("not drained")
	}
}

func TestInjectorStampsInjectCycle(t *testing.T) {
	inj, out, _ := newInjectorPair(t, 4, 8)
	if _, err := inj.Offer(2, 1, 0, 3); err != nil {
		t.Fatal(err)
	}
	inj.Pump(9)
	f := out.Take(10)
	if f == nil {
		t.Fatal("no flit")
	}
	if f.InjectCycle != 9 || f.BirthCycle != 3 {
		t.Errorf("inject=%d birth=%d", f.InjectCycle, f.BirthCycle)
	}
}

func TestInjectorResetStats(t *testing.T) {
	inj, out, _ := newInjectorPair(t, 4, 8)
	if _, err := inj.Offer(2, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	inj.Pump(0)
	out.Take(1)
	inj.ResetStats()
	st := inj.Stats()
	if st.FlitsSent != 0 || st.PacketsSent != 0 || st.StallCycles != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// TestInjectorRingBounded is the regression test for the old slice
// queue, which advanced with queue = queue[1:] and so both retained
// sent-flit pointers in its backing array and regrew on every refill.
// The ring must keep a fixed capacity across sustained traffic,
// including many wrap-arounds, and deliver flits in order.
func TestInjectorRingBounded(t *testing.T) {
	inj, out, cr := newInjectorPair(t, 4, 8)
	cap0 := inj.QueueCap()
	if cap0 != 8 {
		t.Fatalf("QueueCap = %d, want 8", cap0)
	}
	var wantSeq uint64
	cycle := uint64(0)
	for round := 0; round < 100; round++ {
		// Offer a 3-flit packet whenever it fits: the ring head walks
		// through every slot many times.
		if inj.CanAccept(3) {
			if _, err := inj.Offer(2, 3, 0, cycle); err != nil {
				t.Fatal(err)
			}
		}
		inj.Pump(cycle)
		if f := out.Take(cycle); f != nil {
			if f.Packet.Seq() < wantSeq {
				t.Fatalf("round %d: flit of packet %d after packet %d", round, f.Packet.Seq(), wantSeq)
			}
			wantSeq = f.Packet.Seq()
			cr.Send(cycle, 1) // immediate credit return: sustained full rate
		}
		if inj.QueueCap() != cap0 {
			t.Fatalf("round %d: QueueCap grew to %d", round, inj.QueueCap())
		}
		if st := inj.Stats(); st.PeakQueue > cap0 {
			t.Fatalf("round %d: peak queue %d exceeds capacity %d", round, st.PeakQueue, cap0)
		}
		cycle++
	}
	if inj.Stats().FlitsSent < 90 {
		t.Errorf("only %d flits sent in 100 busy cycles", inj.Stats().FlitsSent)
	}
}

// TestInjectorEjectorPoolLifecycle pushes packets through a pooled
// injector -> link -> pooled ejector pipe and checks every acquired
// flit comes back: Live()==0 once the pipe drains, and the steady
// state recycles rather than allocates.
func TestInjectorEjectorPoolLifecycle(t *testing.T) {
	pool := flit.NewPool()
	wire := link.NewLink("wire")
	cr := link.NewCreditLink("cr")
	inj, err := NewInjector(1, wire, cr, 4, 16, pool.Shard("tg1", 1))
	if err != nil {
		t.Fatal(err)
	}
	ej, err := NewEjector(2, wire, cr, 4, pool)
	if err != nil {
		t.Fatal(err)
	}
	var pkts uint64
	cycle := uint64(0)
	for i := 0; i < 12; i++ {
		if inj.CanAccept(4) {
			if _, err := inj.Offer(2, 4, 7, cycle); err != nil {
				t.Fatal(err)
			}
		}
		inj.Pump(cycle)
		ej.Pump(cycle, nil, func(p *flit.Packet, last *flit.Flit) {
			if p.Len != 4 || p.Src != 1 || p.Payload != 7 {
				t.Errorf("completed packet = %+v", p)
			}
			pkts++
		})
		cycle++
	}
	// Stop offering; run the pipe dry.
	for i := 0; i < 16; i++ {
		inj.Pump(cycle)
		ej.Pump(cycle, nil, func(*flit.Packet, *flit.Flit) { pkts++ })
		cycle++
	}
	if pkts == 0 {
		t.Fatal("no packets delivered")
	}
	if !inj.Drained() {
		t.Error("injector not drained")
	}
	if live := pool.Live(); live != 0 {
		t.Errorf("pool.Live() = %d after drain, want 0", live)
	}
	if got, rel := pool.Acquired(), pool.Released(); got != rel {
		t.Errorf("acquired %d != released %d", got, rel)
	}
	// The whole run needs at most max-in-flight distinct flits:
	// ring (16) + wire (1) + ejector buffer (4).
	if alloc := pool.Allocated(); alloc > 21 {
		t.Errorf("allocated %d flits for a recycling pipe", alloc)
	}
}

// TestInjectorDrainReleases checks end-of-run reclamation of queued
// flits that never reached the wire.
func TestInjectorDrainReleases(t *testing.T) {
	pool := flit.NewPool()
	out := link.NewLink("out")
	cr := link.NewCreditLink("cr")
	inj, err := NewInjector(1, out, cr, 1, 8, pool.Shard("tg1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Offer(2, 5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if pool.Live() != 5 {
		t.Fatalf("Live = %d after offer, want 5", pool.Live())
	}
	inj.Drain(func(f *flit.Flit) { pool.Release(f, 0) })
	if pool.Live() != 0 {
		t.Errorf("Live = %d after drain, want 0", pool.Live())
	}
	if !inj.Drained() {
		t.Error("not drained")
	}
}

func TestNewEjectorValidates(t *testing.T) {
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	if _, err := NewEjector(9, nil, cr, 2, nil); err == nil {
		t.Error("nil in accepted")
	}
	if _, err := NewEjector(9, in, nil, 2, nil); err == nil {
		t.Error("nil credit accepted")
	}
	if _, err := NewEjector(9, in, cr, 0, nil); err == nil {
		t.Error("0 depth accepted")
	}
	ej, err := NewEjector(9, in, cr, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ej.Depth() != 3 || ej.Endpoint() != 9 {
		t.Errorf("depth=%d ep=%d", ej.Depth(), ej.Endpoint())
	}
}

func TestEjectorReassemblyAndCredits(t *testing.T) {
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, err := NewEjector(9, in, cr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &flit.Packet{ID: flit.MakePacketID(1, 0), Src: 1, Dst: 9, Len: 3, BirthCycle: 2}
	flits, err := p.Flits()
	if err != nil {
		t.Fatal(err)
	}
	var gotPkts []*flit.Packet
	var gotFlits int
	cycle := uint64(0)
	for i := 0; i < len(flits)+3; i++ {
		if i < len(flits) {
			if err := in.Send(cycle, flits[i]); err != nil {
				t.Fatal(err)
			}
		}
		ej.Pump(cycle, func(*flit.Flit) { gotFlits++ }, func(pkt *flit.Packet, last *flit.Flit) {
			gotPkts = append(gotPkts, pkt)
		})
		cycle++
	}
	if gotFlits != 3 {
		t.Errorf("flits delivered = %d", gotFlits)
	}
	if len(gotPkts) != 1 || gotPkts[0].ID != p.ID {
		t.Fatalf("packets = %v", gotPkts)
	}
	if ej.FlitsReceived() != 3 {
		t.Errorf("FlitsReceived = %d", ej.FlitsReceived())
	}
	if ej.PendingPackets() != 0 {
		t.Errorf("pending = %d", ej.PendingPackets())
	}
	if cr.TotalSent() != 3 {
		t.Errorf("credits returned = %d, want 3", cr.TotalSent())
	}
}

func TestEjectorPanicsOnMisroute(t *testing.T) {
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, err := NewEjector(9, in, cr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := &flit.Flit{Kind: flit.HeadTail, Packet: flit.MakePacketID(1, 0), Src: 1, Dst: 8, PacketLen: 1}
	if err := in.Send(0, wrong); err != nil {
		t.Fatal(err)
	}
	ej.Pump(1, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("misrouted flit not detected")
		}
	}()
	ej.Pump(2, nil, nil)
}
