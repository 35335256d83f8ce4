package switchfab

import (
	"slices"
	"testing"

	"nocemu/internal/arb"
	"nocemu/internal/engine"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
)

// plannedPacket is one packet a test source wants to send.
type plannedPacket struct {
	dst flit.EndpointID
	len uint16
}

// testSrc drives an injector from a fixed plan, one offer attempt per
// cycle.
type testSrc struct {
	name string
	inj  *nic.Injector
	plan []plannedPacket
	i    int
}

func (s *testSrc) ComponentName() string { return s.name }
func (s *testSrc) Tick(c uint64) {
	if s.i < len(s.plan) && s.inj.CanAccept(s.plan[s.i].len) {
		p := s.plan[s.i]
		if _, err := s.inj.Offer(p.dst, p.len, 0, c); err != nil {
			panic(err)
		}
		s.i++
	}
	s.inj.Pump(c)
}
func (s *testSrc) Commit(c uint64) {}
func (s *testSrc) Done() bool      { return s.i >= len(s.plan) && s.inj.Drained() }

// testDst collects packets and the flit arrival order from an ejector.
type testDst struct {
	name   string
	ej     *nic.Ejector
	want   int
	got    []*flit.Packet
	order  []flit.PacketID // owning packet of each flit, in arrival order
	cycles []uint64        // receive cycle per packet
}

func (d *testDst) ComponentName() string { return d.name }
func (d *testDst) Tick(c uint64) {
	d.ej.Pump(c,
		func(f *flit.Flit) { d.order = append(d.order, f.Packet) },
		func(p *flit.Packet, last *flit.Flit) {
			cp := *p // the callback packet is only valid during the call
			d.got = append(d.got, &cp)
			d.cycles = append(d.cycles, c)
		})
}
func (d *testDst) Commit(c uint64) {}
func (d *testDst) Done() bool      { return len(d.got) >= d.want }

func wire(t *testing.T, eng *engine.Engine, name string) (*link.Link, *link.CreditLink) {
	t.Helper()
	return link.NewLink(name), link.NewCreditLink(name + ".cr")
}

func defaultCfg(name string, node topology.NodeID, in, out int, table *routing.Table) Config {
	return Config{
		Name: name, Node: node, NumIn: in, NumOut: out,
		BufDepth: 4, Arb: arb.RoundRobin, Select: routing.First,
		Table: table, Seed: 1,
	}
}

func TestNewValidates(t *testing.T) {
	tb := routing.NewTable(1)
	cases := []Config{
		{Name: "", NumIn: 1, NumOut: 1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
		{Name: "s", NumIn: 0, NumOut: 1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
		{Name: "s", NumIn: 1, NumOut: 0, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
		{Name: "s", NumIn: 1, NumOut: 1, BufDepth: 0, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
		{Name: "s", NumIn: 1, NumOut: 1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: nil},
		{Name: "s", NumIn: 1, NumOut: 1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.Policy("x"), Table: tb},
		{Name: "s", NumIn: 1, NumOut: 1, BufDepth: 1, Arb: arb.Policy("x"), Select: routing.First, Table: tb},
		{Name: "s", NumIn: 1, NumOut: 1, NumVC: -1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
		{Name: "s", NumIn: 1, NumOut: 1, NumVC: topology.MaxVCs + 1, BufDepth: 1, Arb: arb.RoundRobin, Select: routing.First, Table: tb},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(defaultCfg("ok", 0, 2, 2, tb)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestWiringErrors(t *testing.T) {
	tb := routing.NewTable(1)
	s, err := New(defaultCfg("s", 0, 1, 1, tb))
	if err != nil {
		t.Fatal(err)
	}
	l := link.NewLink("l")
	c := link.NewCreditLink("c")
	if err := s.ConnectInput(5, l, c); err == nil {
		t.Error("out-of-range input accepted")
	}
	if err := s.ConnectInput(0, nil, c); err == nil {
		t.Error("nil link accepted")
	}
	if err := s.ConnectInput(0, l, nil); err == nil {
		t.Error("nil credit accepted")
	}
	if err := s.CheckWired(); err == nil {
		t.Error("unwired switch passed CheckWired")
	}
	if err := s.ConnectInput(0, l, c); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectInput(0, l, c); err == nil {
		t.Error("double input wiring accepted")
	}
	ol := link.NewLink("ol")
	oc := link.NewCreditLink("oc")
	if err := s.ConnectOutput(3, ol, 2, oc); err == nil {
		t.Error("out-of-range output accepted")
	}
	if err := s.ConnectOutput(0, ol, 0, oc); err == nil {
		t.Error("0 credits accepted")
	}
	if err := s.ConnectOutput(0, ol, 2, oc); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectOutput(0, ol, 2, oc); err == nil {
		t.Error("double output wiring accepted")
	}
	if err := s.CheckWired(); err != nil {
		t.Errorf("fully wired switch failed CheckWired: %v", err)
	}
}

// buildSingle wires inj -> switch -> ej on a 1x1 switch and returns the
// pieces; dst endpoint is 100.
func buildSingle(t *testing.T, plan []plannedPacket) (*engine.Engine, *testSrc, *testDst, *Switch) {
	t.Helper()
	eng := engine.New()
	tb := routing.NewTable(1)
	if err := tb.Set(0, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	sw, err := New(defaultCfg("sw0", 0, 1, 1, tb))
	if err != nil {
		t.Fatal(err)
	}
	injL, injCr := wire(t, eng, "inj")
	outL, outCr := wire(t, eng, "out")
	if err := sw.ConnectInput(0, injL, injCr); err != nil {
		t.Fatal(err)
	}
	inj, err := nic.NewInjector(1, injL, injCr, sw.BufDepth(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := nic.NewEjector(100, outL, outCr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ConnectOutput(0, outL, ej.Depth(), outCr); err != nil {
		t.Fatal(err)
	}
	if err := sw.CheckWired(); err != nil {
		t.Fatal(err)
	}
	src := &testSrc{name: "src", inj: inj, plan: plan}
	dst := &testDst{name: "dst", ej: ej, want: len(plan)}
	eng.MustRegister(src)
	eng.MustRegister(sw)
	eng.MustRegister(dst)
	return eng, src, dst, sw
}

func TestSingleSwitchDelivery(t *testing.T) {
	plan := []plannedPacket{{100, 1}, {100, 4}, {100, 2}, {100, 8}}
	eng, _, dst, sw := buildSingle(t, plan)
	_, stopped := eng.RunUntil(1000)
	if !stopped {
		t.Fatal("did not finish")
	}
	if len(dst.got) != 4 {
		t.Fatalf("received %d packets", len(dst.got))
	}
	for i, p := range dst.got {
		if p.ID.Seq() != uint64(i) {
			t.Errorf("packet %d out of order: seq %d", i, p.ID.Seq())
		}
		if p.Len != plan[i].len {
			t.Errorf("packet %d len = %d, want %d", i, p.Len, plan[i].len)
		}
	}
	st := sw.Stats()
	if st.FlitsRouted != 15 {
		t.Errorf("flits routed = %d, want 15", st.FlitsRouted)
	}
	if st.PacketsRouted != 4 {
		t.Errorf("packets routed = %d", st.PacketsRouted)
	}
}

func TestSingleSwitchFullThroughput(t *testing.T) {
	// 50 single-flit packets through buffers of depth 4 (> credit round
	// trip): the pipe must sustain one flit per cycle after fill.
	plan := make([]plannedPacket, 50)
	for i := range plan {
		plan[i] = plannedPacket{100, 1}
	}
	eng, _, dst, _ := buildSingle(t, plan)
	n, stopped := eng.RunUntil(200)
	if !stopped {
		t.Fatal("did not finish")
	}
	// Pipeline depth is a handful of cycles; 50 flits must take < 65.
	if n >= 65 {
		t.Errorf("50 flits took %d cycles; pipe not at full rate", n)
	}
	// Steady state: consecutive receives 1 cycle apart.
	gaps := 0
	for i := 5; i < len(dst.cycles); i++ {
		if dst.cycles[i]-dst.cycles[i-1] != 1 {
			gaps++
		}
	}
	if gaps > 0 {
		t.Errorf("%d bubbles in steady-state delivery", gaps)
	}
}

func TestLatencyStamps(t *testing.T) {
	eng, _, dst, _ := buildSingle(t, []plannedPacket{{100, 3}})
	eng.RunUntil(100)
	if len(dst.got) != 1 {
		t.Fatal("packet lost")
	}
	// Inject-to-delivery latency through one switch: link, buffer,
	// switch traversal, link, ejector buffer — small but nonzero.
	lat := dst.cycles[0] - dst.got[0].BirthCycle
	if lat < 3 || lat > 20 {
		t.Errorf("latency = %d, expected a few cycles", lat)
	}
}

// buildContention wires two injectors into a 2x1 switch.
func buildContention(t *testing.T, perSrc int, pktLen uint16) (*engine.Engine, *testDst, *Switch) {
	t.Helper()
	eng := engine.New()
	tb := routing.NewTable(1)
	if err := tb.Set(0, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	sw, err := New(defaultCfg("sw0", 0, 2, 1, tb))
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]plannedPacket, perSrc)
	for i := range plan {
		plan[i] = plannedPacket{100, pktLen}
	}
	for i := 0; i < 2; i++ {
		l, cr := wire(t, eng, []string{"injA", "injB"}[i])
		if err := sw.ConnectInput(i, l, cr); err != nil {
			t.Fatal(err)
		}
		inj, err := nic.NewInjector(flit.EndpointID(i+1), l, cr, sw.BufDepth(), 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.MustRegister(&testSrc{name: []string{"srcA", "srcB"}[i], inj: inj, plan: plan})
	}
	outL, outCr := wire(t, eng, "out")
	ej, err := nic.NewEjector(100, outL, outCr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ConnectOutput(0, outL, ej.Depth(), outCr); err != nil {
		t.Fatal(err)
	}
	if err := sw.CheckWired(); err != nil {
		t.Fatal(err)
	}
	dst := &testDst{name: "dst", ej: ej, want: 2 * perSrc}
	eng.MustRegister(sw)
	eng.MustRegister(dst)
	return eng, dst, sw
}

func TestContentionWormholeNoInterleave(t *testing.T) {
	eng, dst, sw := buildContention(t, 10, 5)
	_, stopped := eng.RunUntil(5000)
	if !stopped {
		t.Fatal("did not finish")
	}
	// Flits of one packet must be contiguous on the shared output.
	for i := 1; i < len(dst.order); i++ {
		cur, prev := dst.order[i], dst.order[i-1]
		if cur != prev {
			// A packet boundary: the previous packet must be complete.
			count := 0
			for j := i - 1; j >= 0 && dst.order[j] == prev; j-- {
				count++
			}
			if count != 5 {
				t.Fatalf("packet %v interleaved: %d contiguous flits", prev, count)
			}
		}
	}
	if sw.Stats().BlockedCycles == 0 {
		t.Error("no blocking recorded under 2:1 contention")
	}
	if sw.Stats().CongestionRate() <= 0 {
		t.Error("congestion rate is zero under contention")
	}
}

func TestContentionFairness(t *testing.T) {
	eng, dst, _ := buildContention(t, 20, 3)
	_, stopped := eng.RunUntil(5000)
	if !stopped {
		t.Fatal("did not finish")
	}
	counts := map[flit.EndpointID]int{}
	for _, p := range dst.got {
		counts[p.Src]++
	}
	if counts[1] != 20 || counts[2] != 20 {
		t.Errorf("per-source deliveries = %v", counts)
	}
	// Round-robin: in the first half of deliveries both sources appear.
	half := dst.got[:20]
	seen := map[flit.EndpointID]int{}
	for _, p := range half {
		seen[p.Src]++
	}
	if seen[1] < 5 || seen[2] < 5 {
		t.Errorf("early deliveries skewed: %v", seen)
	}
}

// laneDst consumes a two-channel output wire directly: it records each
// flit's owning packet and channel tag and returns the credit on the
// channel the flit came on.
type laneDst struct {
	in    *link.Link
	crs   []*link.CreditLink
	want  int
	order []flit.PacketID
	vcs   []uint8
}

func (d *laneDst) ComponentName() string { return "lanedst" }
func (d *laneDst) Tick(c uint64) {
	if f := d.in.Take(c); f != nil {
		d.order = append(d.order, f.Packet)
		d.vcs = append(d.vcs, f.VC)
		d.crs[f.VC].Send(c, 1)
	}
}
func (d *laneDst) Commit(c uint64) {}
func (d *laneDst) Done() bool      { return len(d.order) >= d.want }

// buildLanes wires two injectors into a 2x1 switch of two virtual
// channels; source i sends one pktLen-flit packet to dsts[i]. The table
// routes endpoint 100 on channel 0 and endpoint 101 on channel 1 of the
// one output port.
func buildLanes(t *testing.T, dsts [2]flit.EndpointID, pktLen uint16) (*engine.Engine, *laneDst) {
	t.Helper()
	eng := engine.New()
	tb := routing.NewTable(1)
	for _, dst := range []flit.EndpointID{100, 101} {
		if err := tb.Set(0, dst, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.SetVC(0, 101, 1); err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg("sw0", 0, 2, 1, tb)
	cfg.NumVC = 2
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire2 := func(name string) (*link.Link, []*link.CreditLink) {
		l, c0 := wire(t, eng, name)
		return l, []*link.CreditLink{c0, link.NewCreditLink(name + ".cr.vc1")}
	}
	for i, dst := range dsts {
		l, crs := wire2([]string{"injA", "injB"}[i])
		if err := sw.ConnectInput(i, l, crs[0]); err == nil {
			t.Fatal("one credit wire accepted on a two-channel input")
		}
		if err := sw.ConnectInput(i, l, crs...); err != nil {
			t.Fatal(err)
		}
		inj, err := nic.NewInjector(flit.EndpointID(i+1), l, crs[0], sw.BufDepth(), 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.MustRegister(&testSrc{name: []string{"srcA", "srcB"}[i], inj: inj, plan: []plannedPacket{{dst, pktLen}}})
	}
	outL, outCrs := wire2("out")
	if err := sw.ConnectOutput(0, outL, 4, outCrs...); err != nil {
		t.Fatal(err)
	}
	if err := sw.CheckWired(); err != nil {
		t.Fatal(err)
	}
	dst := &laneDst{in: outL, crs: outCrs, want: 2 * int(pktLen)}
	eng.MustRegister(sw)
	eng.MustRegister(dst)
	return eng, dst
}

// TestLanesInterleaveOnSharedPort: two packets that leave on different
// virtual channels of one output port share the physical channel flit
// by flit — each holds its own lane's wormhole lock — while two packets
// on the same lane stay contiguous, exactly as on the one-lane switch.
func TestLanesInterleaveOnSharedPort(t *testing.T) {
	const pktLen = 12
	switches := func(order []flit.PacketID) int {
		n := 0
		for i := 1; i < len(order); i++ {
			if order[i] != order[i-1] {
				n++
			}
		}
		return n
	}

	eng, dst := buildLanes(t, [2]flit.EndpointID{100, 101}, pktLen)
	if _, stopped := eng.RunUntil(1000); !stopped {
		t.Fatal("two-lane run did not finish")
	}
	if n := switches(dst.order); n < pktLen {
		t.Errorf("packets on different lanes changed owner %d times over %d flits; want flit-by-flit interleaving", n, len(dst.order))
	}
	for i, id := range dst.order {
		if want := uint8(id.Src() - 1); dst.vcs[i] != want {
			t.Fatalf("flit %d of source %d left on channel %d, want %d", i, id.Src(), dst.vcs[i], want)
		}
	}

	eng, dst = buildLanes(t, [2]flit.EndpointID{100, 100}, pktLen)
	if _, stopped := eng.RunUntil(1000); !stopped {
		t.Fatal("one-lane run did not finish")
	}
	if n := switches(dst.order); n != 1 {
		t.Errorf("packets on the same lane changed owner %d times, want 1 (no interleaving)", n)
	}
}

func TestSelectPortPolicies(t *testing.T) {
	tb := routing.NewTable(1)
	mk := func(sel routing.Policy) *Switch {
		cfg := defaultCfg("s", 0, 1, 2, tb)
		cfg.Select = sel
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.credits[0], s.credits[1] = 1, 5
		return s
	}
	head := func(seq uint64) *flit.Flit {
		return &flit.Flit{Kind: flit.Head, Packet: flit.MakePacketID(1, seq), Src: 1, Dst: 100, PacketLen: 2}
	}
	cand := []int{0, 1}

	if got := mk(routing.First).selectPort(cand, head(0), 0); got != 0 {
		t.Errorf("First = %d", got)
	}
	s := mk(routing.PacketModulo)
	if a, b := s.selectPort(cand, head(0), 0), s.selectPort(cand, head(1), 0); a != 0 || b != 1 {
		t.Errorf("PacketModulo = %d,%d", a, b)
	}
	if got := mk(routing.Adaptive).selectPort(cand, head(0), 0); got != 1 {
		t.Errorf("Adaptive = %d, want port with more credits", got)
	}
	s = mk(routing.Random)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[s.selectPort(cand, head(uint64(i)), 0)] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("Random never picked both ports: %v", seen)
	}
	// Single candidate bypasses policy.
	if got := mk(routing.Random).selectPort([]int{1}, head(0), 0); got != 1 {
		t.Errorf("single candidate = %d", got)
	}
}

func TestResetStats(t *testing.T) {
	eng, _, _, sw := buildSingle(t, []plannedPacket{{100, 2}})
	eng.RunUntil(100)
	if sw.Stats().FlitsRouted == 0 {
		t.Fatal("nothing routed")
	}
	sw.ResetStats()
	st := sw.Stats()
	if st.FlitsRouted != 0 || st.BlockedCycles != 0 || st.Cycles != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	bs := sw.BufferStats()
	if len(bs) != 1 || bs[0].Pushes != 0 {
		t.Errorf("buffer stats after reset = %+v", bs)
	}
}

func TestCongestionRateZeroWhenIdle(t *testing.T) {
	if got := (Stats{}).CongestionRate(); got != 0 {
		t.Errorf("idle congestion = %v", got)
	}
	s := Stats{BlockedCycles: 3, FlitsRouted: 1}
	if got := s.CongestionRate(); got != 0.75 {
		t.Errorf("congestion = %v, want 0.75", got)
	}
}

// rig is one switch driven by hand, without the engine: the test stages
// flits on the input wires, steps the clock itself and reads the output
// wires. Every sink id is 100 + its output port and is routed on
// channel 0.
type rig struct {
	sw    *Switch
	in    []*link.Link
	out   []*link.Link
	inCr  [][]*link.CreditLink // per input port, per channel
	outCr []*link.CreditLink   // channel 0 of each output port
	cycle uint64
}

func newRig(tb testing.TB, numIn, numOut, numVC, credits int) *rig {
	tb.Helper()
	table := routing.NewTable(1)
	for o := 0; o < numOut; o++ {
		if err := table.Set(0, flit.EndpointID(100+o), []int{o}); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := defaultCfg("sw0", 0, numIn, numOut, table)
	cfg.NumVC = numVC
	sw, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := &rig{sw: sw}
	newWire := func() (*link.Link, []*link.CreditLink) {
		l := link.NewLink("l")
		crs := make([]*link.CreditLink, numVC)
		for v := range crs {
			crs[v] = link.NewCreditLink("cr")
		}
		return l, crs
	}
	for i := 0; i < numIn; i++ {
		l, crs := newWire()
		if err := sw.ConnectInput(i, l, crs...); err != nil {
			tb.Fatal(err)
		}
		r.in = append(r.in, l)
		r.inCr = append(r.inCr, crs)
	}
	for o := 0; o < numOut; o++ {
		l, crs := newWire()
		if err := sw.ConnectOutput(o, l, credits, crs...); err != nil {
			tb.Fatal(err)
		}
		r.out = append(r.out, l)
		r.outCr = append(r.outCr, crs[0])
	}
	return r
}

// send stages a single-flit packet from src on input port i, channel vc,
// to the sink of output port o.
func (r *rig) send(i, vc, o int, src flit.EndpointID) {
	r.sendFlit(i, &flit.Flit{Kind: flit.HeadTail, Packet: flit.MakePacketID(src, r.cycle), Src: src,
		Dst: flit.EndpointID(100 + o), PacketLen: 1, VC: uint8(vc)})
}

// sendFlit stages f on input port i.
func (r *rig) sendFlit(i int, f *flit.Flit) {
	if err := r.in[i].Send(r.cycle, f); err != nil {
		panic(err)
	}
}

// step runs one cycle: the switch ticks, then every flit on an output
// wire is consumed and its credit returned. The sources of the consumed
// flits are appended to order, in output-port order.
func (r *rig) step(order *[]flit.EndpointID) {
	r.sw.Tick(r.cycle)
	for o, l := range r.out {
		if f := l.Take(r.cycle); f != nil {
			if order != nil {
				*order = append(*order, f.Src)
			}
			r.outCr[o].Send(r.cycle, 1)
		}
	}
	r.cycle++
}

// TestWideSwitchRoundRobinAcrossWords: with more than 64 input lanes the
// request mask of an output lane spans two words. Three input lanes —
// one in the first word, two in the second — contend for one output;
// round-robin must pick the second-word lanes past a requesting
// first-word lane, and wrap from the second word back to the first.
func TestWideSwitchRoundRobinAcrossWords(t *testing.T) {
	r := newRig(t, 35, 1, 2, 4)
	// Input lane = port*2 + channel: lanes 10, 66 and 69, which send 3, 2
	// and 1 packets; the source id names the lane.
	plan := []struct{ port, vc, packets int }{{5, 0, 3}, {33, 0, 2}, {34, 1, 1}}
	var order []flit.EndpointID
	for c := 0; c < 12; c++ {
		for _, p := range plan {
			if c < p.packets {
				r.send(p.port, p.vc, 0, flit.EndpointID(p.port*2+p.vc))
			}
		}
		r.step(&order)
	}
	// Pointer: 0 -> 11 -> 67 -> 0 (lane 69 is the last but one) -> 11 ->
	// 67, from where only lane 10 is left and the search wraps.
	want := []flit.EndpointID{10, 66, 69, 10, 66, 10}
	if !slices.Equal(order, want) {
		t.Errorf("output order by input lane = %v, want %v", order, want)
	}
}

// TestCreditStarvedWinnerAdvancesPointer: the arbiter grants before the
// switch checks the downstream credit, so a winner that cannot move for
// lack of credit still rotates the round-robin pointer. With one credit
// in flight every other cycle is starved, and the lane after the starved
// winner goes next: 0, then (1 starved) 2, then (1 starved again, the
// pointer passes it) 1.
func TestCreditStarvedWinnerAdvancesPointer(t *testing.T) {
	r := newRig(t, 3, 1, 1, 1)
	for i := 0; i < 3; i++ {
		r.send(i, 0, 0, flit.EndpointID(i))
	}
	var order []flit.EndpointID
	for c := 0; c < 12; c++ {
		r.step(&order)
	}
	if want := []flit.EndpointID{0, 2, 1}; !slices.Equal(order, want) {
		t.Errorf("output order by input lane = %v, want %v", order, want)
	}
	if got := r.sw.Stats().BlockedCycles; got != 2+2+1+1 {
		t.Errorf("blocked cycles = %d, want 6 (lanes 1 and 2 wait two cycles, lane 1 two more)", got)
	}
}

// loadRing stages one reused single-flit packet on each of n input ports
// from port first on, input i bound for output i, so each output lane has
// at most one request. ring holds 4*len(r.in) flits: one is back off its
// output wire three cycles after it was staged.
func (r *rig) loadRing(ring []flit.Flit, first, n int) {
	for k := 0; k < n; k++ {
		i := (first + k) % len(r.in)
		f := &ring[int(r.cycle%4)*len(r.in)+i]
		*f = flit.Flit{Kind: flit.HeadTail, Dst: flit.EndpointID(100 + i), PacketLen: 1}
		r.sendFlit(i, f)
	}
}

// BenchmarkSwitchTick times one cycle of one switch and its wires in the
// three regimes a switch lives in: every output carrying a flit per
// cycle, at three radices (a duty no workload reaches); one flit per
// cycle through the switch, entering by each input in turn, the other
// lanes empty — where the benchmark workloads are; and nothing to do,
// the per-cycle cost an idle switch pays before the gate parks it.
func BenchmarkSwitchTick(b *testing.B) {
	for _, bc := range []struct {
		name        string
		radix, load int // load: inputs that send each cycle
	}{
		{"radix5", 5, 5}, {"radix31", 31, 31}, {"radix63", 63, 63},
		{"radix5one", 5, 1}, {"radix31one", 31, 1}, {"radix31idle", 31, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newRig(b, bc.radix, bc.radix, 1, 4)
			ring := make([]flit.Flit, 4*bc.radix)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r.loadRing(ring, n, bc.load)
				r.step(nil)
			}
			if got := r.sw.Stats().FlitsRouted; got < uint64(bc.load*max(b.N-3, 0)) {
				b.Fatalf("%d flits routed in %d cycles, want %d a cycle", got, b.N, bc.load)
			}
		})
	}
}
