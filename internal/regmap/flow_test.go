package regmap

import (
	"math"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/receptor"
)

// flowTR is a receptor at endpoint 100 that has heard one single-flit
// packet from each of srcs, in that order, and its register bank.
func flowTR(t testing.TB, mode receptor.Mode, trackLast bool, srcs ...flit.EndpointID) (*receptor.TR, *Bank) {
	t.Helper()
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, err := nic.NewEjector(100, in, cr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := receptor.New(receptor.Config{Name: "tr0", Endpoint: 100, Mode: mode, TrackLast: trackLast}, ej)
	if err != nil {
		t.Fatal(err)
	}
	cycle := uint64(0)
	for i, src := range srcs {
		p := &flit.Packet{ID: flit.MakePacketID(src, uint64(i)), Src: src, Dst: 100, Len: 1}
		fs, err := p.Flits()
		if err != nil {
			t.Fatal(err)
		}
		// Back-date each packet by its position so latencies differ.
		fs[0].InjectCycle = cycle - min(cycle, uint64(i))
		if err := in.Send(cycle, fs[0]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			cycle = pump(tr, in, cr, cycle)
		}
	}
	if got := tr.Stats().Packets; got != uint64(len(srcs)) {
		t.Fatalf("receptor heard %d packets, sent %d", got, len(srcs))
	}
	return tr, NewTRDevice(tr)
}

func read64(t *testing.T, d *Bank, reg uint32) uint64 {
	t.Helper()
	lo, err := d.ReadReg(reg)
	if err != nil {
		t.Fatalf("read 0x%03x: %v", reg, err)
	}
	hi, err := d.ReadReg(reg + 1)
	if err != nil {
		t.Fatalf("read 0x%03x: %v", reg+1, err)
	}
	return uint64(hi)<<32 | uint64(lo)
}

func TestTRFlowRowsInSourceOrder(t *testing.T) {
	tr, d := flowTR(t, receptor.TraceDriven, true, 9, 2, 14, 5, 2, 9, 9)
	if n, _ := d.ReadReg(RegFlowCount); n != 4 {
		t.Fatalf("FLOW_COUNT = %d, want 4", n)
	}
	for i, want := range []struct {
		src     uint32
		packets uint64
	}{{2, 2}, {5, 1}, {9, 3}, {14, 1}} {
		if err := d.WriteReg(RegFlowSel, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if src, err := d.ReadReg(RegFlowSrc); err != nil || src != want.src {
			t.Errorf("row %d: FLOW_SRC = %d, %v; want %d", i, src, err, want.src)
		}
		fl, _ := tr.Flow(i)
		if got := read64(t, d, RegFlowPackets); got != want.packets {
			t.Errorf("row %d: FLOW_PACKETS = %d, want %d", i, got, want.packets)
		}
		if got := math.Float64frombits(read64(t, d, RegFlowMeanF64)); got != fl.Mean {
			t.Errorf("row %d: FLOW_MEAN_F64 = %v, want %v", i, got, fl.Mean)
		}
		if got := math.Float64frombits(read64(t, d, RegFlowMaxF64)); got != fl.Max {
			t.Errorf("row %d: FLOW_MAX_F64 = %v, want %v", i, got, fl.Max)
		}
		if got := read64(t, d, RegFlowLast); got != fl.Last || got == 0 {
			t.Errorf("row %d: FLOW_LAST = %d, want %d (nonzero)", i, got, fl.Last)
		}
	}
	// Source 9's packets were back-dated by 0, 5 and 6 cycles: its last
	// latency is its largest.
	if fl, _ := tr.Flow(2); fl.Last != uint64(fl.Max) || fl.Max == fl.Mean {
		t.Errorf("source 9 row %+v: want last = max > mean", fl)
	}
}

func TestTRFlowRegistersBusErrorPastCount(t *testing.T) {
	tr, d := flowTR(t, receptor.TraceDriven, true, 3, 1, 2)
	regs := []uint32{
		RegFlowSrc,
		RegFlowPackets, RegFlowPackets + 1,
		RegFlowMeanF64, RegFlowMeanF64 + 1,
		RegFlowMaxF64, RegFlowMaxF64 + 1,
		RegFlowLast, RegFlowLast + 1,
	}
	for _, sel := range []uint32{3, 4, math.MaxUint32} {
		if err := d.WriteReg(RegFlowSel, sel); err != nil {
			t.Fatal(err)
		}
		for _, reg := range regs {
			if v, err := d.ReadReg(reg); err == nil {
				t.Errorf("FLOW_SEL %d: read of 0x%03x = %d, want a bus error", sel, reg, v)
			}
		}
	}
	// A LO read that failed latches nothing: after selecting a valid row,
	// the HI half samples that row.
	if _, err := d.ReadReg(RegFlowMeanF64); err == nil {
		t.Fatal("LO read past FLOW_COUNT succeeded")
	}
	if err := d.WriteReg(RegFlowSel, 0); err != nil {
		t.Fatal(err)
	}
	fl, _ := tr.Flow(0)
	want := uint32(math.Float64bits(fl.Mean) >> 32)
	if hi, err := d.ReadReg(RegFlowMeanF64 + 1); err != nil || hi != want || want == 0 {
		t.Errorf("HI read after a failed LO read = %#x, %v; want %#x", hi, err, want)
	}
}

func TestTRFlowLastZeroWithoutTrackLast(t *testing.T) {
	_, d := flowTR(t, receptor.TraceDriven, false, 4, 2)
	for i := uint32(0); i < 2; i++ {
		if err := d.WriteReg(RegFlowSel, i); err != nil {
			t.Fatal(err)
		}
		if got := read64(t, d, RegFlowPackets); got != 1 {
			t.Errorf("row %d: FLOW_PACKETS = %d, want 1", i, got)
		}
		if got := read64(t, d, RegFlowLast); got != 0 {
			t.Errorf("row %d: FLOW_LAST = %d without TrackLast, want 0", i, got)
		}
	}
}

func TestTRFlowCountZeroStochastic(t *testing.T) {
	_, d := flowTR(t, receptor.Stochastic, false, 4, 2, 7)
	if n, err := d.ReadReg(RegFlowCount); err != nil || n != 0 {
		t.Errorf("FLOW_COUNT = %d, %v on a stochastic TR, want 0", n, err)
	}
	if _, err := d.ReadReg(RegFlowSrc); err == nil {
		t.Error("FLOW_SRC of row 0 on a stochastic TR read without a bus error")
	}
}

// fifteenFlows is the sources of a 4x4 mesh sink but its own, in
// descending order: every arrival inserts at the table's front.
func fifteenFlows() []flit.EndpointID {
	srcs := make([]flit.EndpointID, 15)
	for i := range srcs {
		srcs[i] = flit.EndpointID(15 - i)
	}
	return srcs
}

// readFlowRow reads one row as the serve oracle does: select it, read
// its source and its last latency.
func readFlowRow(tb testing.TB, d *Bank, sel uint32) {
	if err := d.WriteReg(RegFlowSel, sel); err != nil {
		tb.Fatal(err)
	}
	for _, reg := range []uint32{RegFlowSrc, RegFlowLast, RegFlowLast + 1} {
		if _, err := d.ReadReg(reg); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestTRFlowReadsAllocateNothing holds a flow-register read to O(1) and
// allocation-free: the per-xfer oracle path selects a row and reads it.
func TestTRFlowReadsAllocateNothing(t *testing.T) {
	_, d := flowTR(t, receptor.TraceDriven, true, fifteenFlows()...)
	var sel uint32
	allocs := testing.AllocsPerRun(100, func() {
		sel = (sel + 1) % 15
		readFlowRow(t, d, sel)
	})
	if allocs != 0 {
		t.Errorf("FLOW_SEL write plus FLOW_SRC and FLOW_LAST reads: %v allocations, want 0", allocs)
	}
}

// BenchmarkTRFlowRead times one row readout of a 15-flow table.
func BenchmarkTRFlowRead(b *testing.B) {
	_, d := flowTR(b, receptor.TraceDriven, true, fifteenFlows()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		readFlowRow(b, d, uint32(i%15))
	}
}

// TestTRStatsRegistersMatchStats reads every statistics register in
// both modes and compares it to the Stats field it serves, bit for bit.
func TestTRStatsRegistersMatchStats(t *testing.T) {
	for _, mode := range []receptor.Mode{receptor.Stochastic, receptor.TraceDriven} {
		tr, d := flowTR(t, mode, false, 3, 1, 3, 2, 3)
		st := tr.Stats()
		for reg, want := range map[uint32]uint64{
			RegTRPackets: st.Packets, RegTRFlits: st.Flits,
			RegTRRunningTime: st.RunningTime, RegTRCongestion: st.CongestionCycles,
			RegTRNetLatMeanF64: math.Float64bits(st.NetLatencyMean),
			RegTRNetLatMinF64:  math.Float64bits(st.NetLatencyMin),
			RegTRNetLatMaxF64:  math.Float64bits(st.NetLatencyMax),
			RegTRNetLatStdF64:  math.Float64bits(st.NetLatencyStd),
			RegTRTotLatMeanF64: math.Float64bits(st.TotLatencyMean),
		} {
			if got := read64(t, d, reg); got != want {
				t.Errorf("%s: 0x%03x = %#x, Stats %#x", mode, reg, got, want)
			}
		}
		for reg, want := range map[uint32]uint32{
			RegTRNetLatMeanQ8: q8(st.NetLatencyMean), RegTRNetLatMin: uint32(st.NetLatencyMin),
			RegTRNetLatMax: uint32(st.NetLatencyMax), RegTRNetLatStdQ8: q8(st.NetLatencyStd),
			RegTRTotLatMeanQ8: q8(st.TotLatencyMean), RegTRNetLatP95: uint32(st.NetLatencyP95),
		} {
			if got, err := d.ReadReg(reg); err != nil || got != want {
				t.Errorf("%s: 0x%03x = %d, %v; Stats %d", mode, reg, got, err, want)
			}
		}
		if mode == receptor.TraceDriven && (st.CongestionCycles == 0 || st.NetLatencyStd == 0) {
			t.Errorf("stats %+v: the stimulus is too thin to tell anything", st)
		}
	}
}
