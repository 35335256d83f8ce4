package regmap

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/receptor"
	"nocemu/internal/routing"
	"nocemu/internal/switchfab"
	"nocemu/internal/traffic"

	"nocemu/internal/arb"
)

func mkTG(t *testing.T, gen traffic.Generator) *traffic.TG {
	t.Helper()
	out := link.NewLink("o")
	cr := link.NewCreditLink("c")
	inj, err := nic.NewInjector(0, out, cr, 4, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := traffic.NewTG(traffic.TGConfig{Name: "tg0", Seed: 1}, gen, inj)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func mkUniformTG(t *testing.T) *traffic.TG {
	t.Helper()
	g, err := traffic.NewUniform(traffic.UniformConfig{
		LenMin: 2, LenMax: 4, GapMin: 1, GapMax: 5,
		Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mkTG(t, g)
}

func TestTGDeviceIdentity(t *testing.T) {
	d := NewTGDevice(mkUniformTG(t))
	if d.DeviceName() != "tg0" {
		t.Errorf("name = %q", d.DeviceName())
	}
	if v, _ := d.ReadReg(RegType); v != TypeTG {
		t.Errorf("type = %d", v)
	}
	if v, _ := d.ReadReg(RegSubtype); v != 1 { // uniform
		t.Errorf("subtype = %d", v)
	}
}

func TestTGDeviceCtrlAndSeed(t *testing.T) {
	tg := mkUniformTG(t)
	d := NewTGDevice(tg)
	if v, _ := d.ReadReg(RegCtrl); v&CtrlEnable == 0 {
		t.Error("TG not enabled by default")
	}
	if err := d.WriteReg(RegCtrl, 0); err != nil {
		t.Fatal(err)
	}
	if tg.Enabled() {
		t.Error("disable via register failed")
	}
	if err := d.WriteReg(RegCtrl, CtrlEnable); err != nil {
		t.Fatal(err)
	}
	if !tg.Enabled() {
		t.Error("enable via register failed")
	}
	if err := d.WriteReg(RegSeed, 99); err != nil {
		t.Errorf("seed write: %v", err)
	}
}

func TestTGDeviceLimit64(t *testing.T) {
	tg := mkUniformTG(t)
	d := NewTGDevice(tg)
	if err := d.WriteReg(RegLimitLo, 0xFFFFFFFF); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegLimitHi, 0x2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegLimitLo); v != 0xFFFFFFFF {
		t.Errorf("limit lo = %x", v)
	}
	if v, _ := d.ReadReg(RegLimitHi); v != 2 {
		t.Errorf("limit hi = %x", v)
	}
	// Done() false because limit (2^33+...) not reached.
	if tg.Done() {
		t.Error("done with huge limit")
	}
}

func TestTGDeviceParams(t *testing.T) {
	d := NewTGDevice(mkUniformTG(t))
	// len_min = 2 initially.
	if v, err := d.ReadReg(RegParamBase + 0); err != nil || v != 2 {
		t.Errorf("len_min = %d, %v", v, err)
	}
	// Raise len_max then len_min.
	if err := d.WriteReg(RegParamBase+1, 9); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegParamBase+0, 9); err != nil {
		t.Fatal(err)
	}
	// Invalid: len_min above len_max.
	if err := d.WriteReg(RegParamBase+0, 10); err == nil {
		t.Error("invariant-breaking write accepted")
	}
	// Unknown param register.
	if _, err := d.ReadReg(RegParamBase + 9); err == nil {
		t.Error("unknown param read succeeded")
	}
	if _, err := d.ReadReg(0x500); err == nil {
		t.Error("unmapped read succeeded")
	}
	if err := d.WriteReg(0x500, 1); err == nil {
		t.Error("unmapped write succeeded")
	}
}

func TestTGDeviceStatsRoundTrip(t *testing.T) {
	tg := mkUniformTG(t)
	d := NewTGDevice(tg)
	// Drive a few cycles so counters move.
	for c := uint64(0); c < 30; c++ {
		tg.Tick(c)
		tg.Commit(c)
	}
	off, _ := d.ReadReg(RegTGOffered)
	if off == 0 {
		t.Error("offered counter still zero")
	}
	if err := d.WriteReg(RegCtrl, CtrlEnable|CtrlResetStats); err != nil {
		t.Fatal(err)
	}
	off, _ = d.ReadReg(RegTGOffered)
	if off != 0 {
		t.Error("reset-stats bit did not clear counters")
	}
}

func mkTR(t *testing.T, mode receptor.Mode) (*receptor.TR, *link.Link, *link.CreditLink) {
	t.Helper()
	in := link.NewLink("in")
	cr := link.NewCreditLink("cr")
	ej, err := nic.NewEjector(100, in, cr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := receptor.New(receptor.Config{
		Name: "tr0", Endpoint: 100, Mode: mode,
		SizeBinWidth: 1, SizeBins: 8, GapBinWidth: 1, GapBins: 8,
		LatBinWidth: 1, LatBins: 16,
	}, ej)
	if err != nil {
		t.Fatal(err)
	}
	return tr, in, cr
}

func feedTR(tr *receptor.TR, in *link.Link, cr *link.CreditLink, n int, length uint16) {
	cycle := uint64(0)
	for i := 0; i < n; i++ {
		p := &flit.Packet{
			ID: flit.MakePacketID(1, uint64(i)), Src: 1, Dst: 100,
			Len: length, BirthCycle: cycle,
		}
		fs, err := p.Flits()
		if err != nil {
			panic(err)
		}
		for _, f := range fs {
			f.InjectCycle = cycle
			for in.Busy(cycle) {
				cycle = pump(tr, in, cr, cycle)
			}
			if err := in.Send(cycle, f); err != nil {
				panic(err)
			}
			cycle = pump(tr, in, cr, cycle)
		}
	}
	for i := 0; i < 5; i++ {
		cycle = pump(tr, in, cr, cycle)
	}
}

func pump(tr *receptor.TR, in *link.Link, cr *link.CreditLink, cycle uint64) uint64 {
	tr.Tick(cycle)
	tr.Commit(cycle)
	return cycle + 1
}

func TestTRDeviceStochastic(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	if v, _ := d.ReadReg(RegSubtype); v != SubtypeStochastic {
		t.Errorf("subtype = %d", v)
	}
	feedTR(tr, in, cr, 3, 2)
	if v, _ := d.ReadReg(RegTRPackets); v != 3 {
		t.Errorf("packets = %d", v)
	}
	if v, _ := d.ReadReg(RegTRFlits); v != 6 {
		t.Errorf("flits = %d", v)
	}
	// Histogram: size bin 2 holds 3 packets.
	if err := d.WriteReg(RegHistSel, HistSize); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegHistIdx, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegHistData); v != 3 {
		t.Errorf("size bin[2] = %d", v)
	}
	if v, _ := d.ReadReg(RegHistBins); v != 8 {
		t.Errorf("bins = %d", v)
	}
	if v, _ := d.ReadReg(RegHistWidth); v != 1 {
		t.Errorf("width = %d", v)
	}
	if v, _ := d.ReadReg(RegHistOver); v != 0 {
		t.Errorf("overflow = %d", v)
	}
	// Latency histogram absent in stochastic mode.
	if err := d.WriteReg(RegHistSel, HistLat); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadReg(RegHistData); err == nil {
		t.Error("latency histogram read in stochastic mode succeeded")
	}
	if err := d.WriteReg(RegHistSel, 7); err == nil {
		t.Error("bad selector accepted")
	}
}

func TestTRDeviceTraceLatency(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.TraceDriven)
	d := NewTRDevice(tr)
	if v, _ := d.ReadReg(RegSubtype); v != SubtypeTraceTR {
		t.Errorf("subtype = %d", v)
	}
	feedTR(tr, in, cr, 4, 3)
	mean, _ := d.ReadReg(RegTRNetLatMeanQ8)
	if mean == 0 {
		t.Error("latency mean register zero")
	}
	mn, _ := d.ReadReg(RegTRNetLatMin)
	mx, _ := d.ReadReg(RegTRNetLatMax)
	if mn == 0 || mx < mn {
		t.Errorf("latency min/max = %d/%d", mn, mx)
	}
	// Expectation register drives Done.
	if err := d.WriteReg(RegLimitLo, 4); err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Error("TR not done after expect=4 with 4 packets")
	}
	// Reset via CTRL.
	if err := d.WriteReg(RegCtrl, CtrlResetStats); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegTRPackets); v != 0 {
		t.Error("reset failed")
	}
}

func TestSwitchDevice(t *testing.T) {
	tb := routing.NewTable(1)
	sw, err := switchfab.New(switchfab.Config{
		Name: "sw0", Node: 0, NumIn: 1, NumOut: 1, BufDepth: 2,
		Arb: arb.RoundRobin, Select: routing.First, Table: tb, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewSwitchDevice(sw)
	if d.DeviceName() != "sw0" {
		t.Errorf("name = %q", d.DeviceName())
	}
	if v, _ := d.ReadReg(RegType); v != TypeSwitch {
		t.Errorf("type = %d", v)
	}
	if v, _ := d.ReadReg(RegSwCycles); v != 0 {
		t.Errorf("cycles = %d", v)
	}
	if _, err := d.ReadReg(0x900); err == nil {
		t.Error("unmapped read succeeded")
	}
	if err := d.WriteReg(0x900, 0); err == nil {
		t.Error("unmapped write succeeded")
	}
	if err := d.WriteReg(RegCtrl, CtrlResetStats); err != nil {
		t.Errorf("reset write: %v", err)
	}
}

func TestQ8Encoding(t *testing.T) {
	if q8(1.5) != 384 {
		t.Errorf("q8(1.5) = %d", q8(1.5))
	}
	if q8(-2) != 0 {
		t.Errorf("q8(-2) = %d", q8(-2))
	}
}

// mkSwitchDevice builds a minimal switch register bank for register
// sweep tests.
func mkSwitchDevice(t *testing.T) *Bank {
	t.Helper()
	tb := routing.NewTable(1)
	sw, err := switchfab.New(switchfab.Config{
		Name: "swX", Node: 0, NumIn: 1, NumOut: 1, BufDepth: 2,
		Arb: arb.RoundRobin, Select: routing.First, Table: tb, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewSwitchDevice(sw)
}
