package receptor

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/nic"
)

// harness feeds flits into a TR through its ejector link.
type harness struct {
	tr    *TR
	in    *link.Link
	cr    *link.CreditLink
	queue []*flit.Flit
	cycle uint64
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, err := nic.NewEjector(cfg.Endpoint, in, cr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg, ej)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{tr: tr, in: in, cr: cr}
}

// sendPacket queues a packet's flits with the given inject/birth cycles.
func (h *harness) sendPacket(src flit.EndpointID, seq uint64, length uint16, inject uint64) {
	p := &flit.Packet{
		ID: flit.MakePacketID(src, seq), Src: src, Dst: h.tr.Endpoint(),
		Len: length, BirthCycle: inject,
	}
	fs, err := p.Flits()
	if err != nil {
		panic(err)
	}
	for _, f := range fs {
		f.InjectCycle = inject
		h.queue = append(h.queue, f)
	}
}

// run advances n cycles, delivering one queued flit per cycle.
func (h *harness) run(n int) {
	for i := 0; i < n; i++ {
		if len(h.queue) > 0 && !h.in.Busy(h.cycle) {
			if err := h.in.Send(h.cycle, h.queue[0]); err != nil {
				panic(err)
			}
			h.queue = h.queue[1:]
		}
		h.tr.Tick(h.cycle)
		h.tr.Commit(h.cycle)
		h.cycle++
	}
}

// idle advances n cycles without sending.
func (h *harness) idle(n int) {
	save := h.queue
	h.queue = nil
	h.run(n)
	h.queue = save
}

func TestNewValidation(t *testing.T) {
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, _ := nic.NewEjector(9, in, cr, 2, nil)
	if _, err := New(Config{Name: "", Endpoint: 9, Mode: Stochastic}, ej); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "tr", Endpoint: 9, Mode: Stochastic}, nil); err == nil {
		t.Error("nil ejector accepted")
	}
	if _, err := New(Config{Name: "tr", Endpoint: 8, Mode: Stochastic}, ej); err == nil {
		t.Error("endpoint mismatch accepted")
	}
	if _, err := New(Config{Name: "tr", Endpoint: 9, Mode: Mode("x")}, ej); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestStochasticHistograms(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: Stochastic, GapBinWidth: 1, GapBins: 16})
	h.sendPacket(1, 0, 3, 0)
	h.sendPacket(1, 1, 5, 0)
	h.sendPacket(1, 2, 3, 0)
	h.run(20)
	st := h.tr.Stats()
	if st.Packets != 3 || st.Flits != 11 {
		t.Fatalf("stats = %+v", st)
	}
	if h.tr.SizeHist().Bin(3) != 2 || h.tr.SizeHist().Bin(5) != 1 {
		t.Errorf("size bins: 3->%d 5->%d", h.tr.SizeHist().Bin(3), h.tr.SizeHist().Bin(5))
	}
	// Back-to-back packets: gaps equal packet lengths (5 and 3).
	if h.tr.GapHist().Count() != 2 {
		t.Errorf("gap samples = %d", h.tr.GapHist().Count())
	}
	if st.MeanSize == 0 || st.MeanGap == 0 {
		t.Errorf("means zero: %+v", st)
	}
	if h.tr.LatHist() != nil {
		t.Error("latency histogram allocated in stochastic mode")
	}
	if st.Mode != Stochastic {
		t.Error("mode in stats wrong")
	}
}

func TestRunningTime(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: Stochastic})
	h.idle(5)
	h.sendPacket(1, 0, 2, 0)
	h.run(10)
	st := h.tr.Stats()
	// First flit consumed at some cycle c, second at c+1: span 2.
	if st.RunningTime != 2 {
		t.Errorf("running time = %d, want 2", st.RunningTime)
	}
}

func TestTraceDrivenLatency(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: TraceDriven, LatBinWidth: 1, LatBins: 64})
	h.sendPacket(1, 0, 4, 0) // injected at cycle 0
	h.run(30)
	st := h.tr.Stats()
	if st.Packets != 1 {
		t.Fatalf("packets = %d", st.Packets)
	}
	// Head sent at cycle 0, four flits delivered one per cycle with the
	// ejector's buffered pipeline: latency is small and positive.
	if st.NetLatencyMean < 3 || st.NetLatencyMean > 10 {
		t.Errorf("net latency = %v", st.NetLatencyMean)
	}
	if st.TotLatencyMean < st.NetLatencyMean {
		t.Errorf("total %v < network %v", st.TotLatencyMean, st.NetLatencyMean)
	}
	if h.tr.LatHist().Count() != 1 {
		t.Error("latency histogram empty")
	}
	if h.tr.SizeHist() != nil {
		t.Error("size histogram allocated in trace mode")
	}
}

func TestCongestionCounter(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: TraceDriven})
	// First packet sets the per-source baseline; the second, injected
	// earlier relative to delivery, shows 10 extra cycles of latency.
	h.sendPacket(1, 0, 1, 0)
	h.run(10)
	base := h.tr.Stats().NetLatencyMin
	// The next flit goes on the wire at h.cycle and is delivered two
	// cycles later (link + ejector buffer); back-date its injection so
	// it shows base+10 cycles of latency.
	h.sendPacket(1, 1, 1, h.cycle+2-uint64(base)-10)
	h.run(10)
	st := h.tr.Stats()
	if st.Packets != 2 {
		t.Fatalf("packets = %d", st.Packets)
	}
	if st.CongestionCycles != 10 {
		t.Errorf("congestion = %d, want 10", st.CongestionCycles)
	}
	if st.CongestionPerPacket != 5 {
		t.Errorf("congestion/packet = %v, want 5", st.CongestionPerPacket)
	}
}

func TestDoneOnExpected(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: Stochastic, ExpectPackets: 2})
	if h.tr.Done() {
		t.Error("done before any packet")
	}
	h.sendPacket(1, 0, 1, 0)
	h.sendPacket(1, 1, 1, 0)
	h.run(10)
	if !h.tr.Done() {
		t.Error("not done after expected packets")
	}
	h.tr.SetExpect(5)
	if h.tr.Done() {
		t.Error("done after raising expectation")
	}
	// Expect 0 never finishes.
	h.tr.SetExpect(0)
	if h.tr.Done() {
		t.Error("done with expect=0")
	}
}

func TestResetStats(t *testing.T) {
	for _, mode := range []Mode{Stochastic, TraceDriven} {
		h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: mode})
		h.sendPacket(1, 0, 2, 0)
		h.run(10)
		if h.tr.Stats().Packets != 1 {
			t.Fatalf("%s: packet lost", mode)
		}
		h.tr.ResetStats()
		st := h.tr.Stats()
		if st.Packets != 0 || st.Flits != 0 || st.RunningTime != 0 ||
			st.CongestionCycles != 0 || st.NetLatencyMean != 0 || st.MeanSize != 0 {
			t.Errorf("%s: stats after reset = %+v", mode, st)
		}
	}
}

func TestMultiSourceCongestionBaselines(t *testing.T) {
	h := newHarness(t, Config{Name: "tr", Endpoint: 9, Mode: TraceDriven})
	// Source 1 has baseline latency; source 2 arrives much later after
	// injection but that is its own baseline, not congestion.
	h.sendPacket(1, 0, 1, 0)
	h.run(10)
	h.sendPacket(2, 0, 1, 0) // inject stamp 0, delivered around cycle 20
	h.run(10)
	st := h.tr.Stats()
	if st.CongestionCycles != 0 {
		t.Errorf("cross-source congestion = %d, want 0 (separate baselines)", st.CongestionCycles)
	}
}
