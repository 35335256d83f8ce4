package regmap

import (
	"testing"

	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/receptor"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

func mkTGWith(t *testing.T, gen traffic.Generator) *traffic.TG {
	t.Helper()
	out := link.NewLink("o")
	cr := link.NewCreditLink("c")
	inj, err := nic.NewInjector(0, out, cr, 4, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := traffic.NewTG(traffic.TGConfig{Name: "tgX", Seed: 1}, gen, inj)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestTGDeviceSubtypes: SUBTYPE reads every model's code out of the
// traffic-model table, and a scripted overlay reports the model it
// wraps (a pure script source its own).
func TestTGDeviceSubtypes(t *testing.T) {
	for _, m := range traffic.Models() {
		gen, err := m.Sample()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []traffic.Generator{gen, traffic.NewScript(gen)} {
			d := NewTGDevice(mkTGWith(t, g))
			if v, err := d.ReadReg(RegSubtype); err != nil || v != m.Subtype || v == 0 {
				t.Errorf("%s subtype = %d, %v, want %d", g.ModelName(), v, err, m.Subtype)
			}
		}
	}
	tgen, err := traffic.NewTraceGen(&trace.Trace{Records: []trace.Record{{Cycle: 0, Dst: 1, Len: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Trace generator exposes the remaining-records parameter.
	d := NewTGDevice(mkTGWith(t, tgen))
	if v, err := d.ReadReg(RegParamBase + 0); err != nil || v != 1 {
		t.Errorf("trace remaining = %d, %v", v, err)
	}
	if err := d.WriteReg(RegParamBase+0, 5); err == nil {
		t.Error("trace position write accepted")
	}
}

// TestTGDeviceScriptedParams: the PARAM window of a scripted overlay is
// the wrapped model's, as its SUBTYPE is — every nocserve session's TGs
// are scripted overlays on uniform. A pure script source has none.
func TestTGDeviceScriptedParams(t *testing.T) {
	m, _ := traffic.LookupModel("uniform")
	inner, err := m.Sample()
	if err != nil {
		t.Fatal(err)
	}
	d := NewTGDevice(mkTGWith(t, traffic.NewScript(inner)))
	if err := d.WriteReg(RegParamBase+1, 6); err != nil { // len_max
		t.Fatal(err)
	}
	if err := d.WriteReg(RegParamBase+0, 4); err != nil { // len_min
		t.Fatal(err)
	}
	if v, err := d.ReadReg(RegParamBase + 0); err != nil || v != 4 {
		t.Errorf("scripted uniform PARAM 0 (len_min) = %d, %v, want 4", v, err)
	}
	if v, _ := inner.(traffic.Parameterized).ReadParam(1); v != 6 {
		t.Errorf("wrapped model's len_max = %d after a bus write of 6", v)
	}
	if err := d.WriteReg(RegParamBase+0, 7); err == nil {
		t.Error("len_min above len_max accepted through the overlay")
	}
	pure := NewTGDevice(mkTGWith(t, traffic.NewScript(nil)))
	if _, err := pure.ReadReg(RegParamBase + 0); err == nil {
		t.Error("pure script source reads a parameter register")
	}
}

func TestTGDeviceHighWords(t *testing.T) {
	d := NewTGDevice(mkUniformTG(t))
	// All hi words of the 64-bit counters must read (zero here).
	for _, reg := range []uint32{
		RegTGOffered + 1, RegTGPacketsSent + 1, RegTGFlitsSent + 1,
		RegTGStallCycles + 1, RegTGBackpressure + 1,
	} {
		if v, err := d.ReadReg(reg); err != nil || v != 0 {
			t.Errorf("reg 0x%x = %d, %v", reg, v, err)
		}
	}
}

func TestTRDeviceGapHistogramAndHiWords(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	feedTR(tr, in, cr, 4, 2)
	if err := d.WriteReg(RegHistSel, HistGap); err != nil {
		t.Fatal(err)
	}
	if v, err := d.ReadReg(RegHistBins); err != nil || v != 8 {
		t.Errorf("gap bins = %d, %v", v, err)
	}
	var total uint32
	for i := uint32(0); i < 8; i++ {
		if err := d.WriteReg(RegHistIdx, i); err != nil {
			t.Fatal(err)
		}
		v, err := d.ReadReg(RegHistData)
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	over, _ := d.ReadReg(RegHistOver)
	// 3 inter-arrival samples for 4 packets.
	if total+over != 3 {
		t.Errorf("gap samples = %d", total+over)
	}
	for _, reg := range []uint32{
		RegTRPackets + 1, RegTRFlits + 1, RegTRRunningTime + 1, RegTRCongestion + 1,
	} {
		if v, err := d.ReadReg(reg); err != nil || v != 0 {
			t.Errorf("hi reg 0x%x = %d, %v", reg, v, err)
		}
	}
	if v, err := d.ReadReg(RegHistSel); err != nil || v != HistGap {
		t.Errorf("hist sel readback = %d, %v", v, err)
	}
	if v, err := d.ReadReg(RegHistIdx); err != nil || v != 7 {
		t.Errorf("hist idx readback = %d, %v", v, err)
	}
	if v, err := d.ReadReg(RegCtrl); err != nil || v != 0 {
		t.Errorf("TR ctrl = %d, %v", v, err)
	}
	if _, err := d.ReadReg(0x700); err == nil {
		t.Error("unmapped TR read succeeded")
	}
	if err := d.WriteReg(0x700, 1); err == nil {
		t.Error("unmapped TR write succeeded")
	}
}

func TestTRDeviceExpectReadback(t *testing.T) {
	tr, _, _ := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	if err := d.WriteReg(RegLimitLo, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegLimitHi, 1); err != nil {
		t.Fatal(err)
	}
	lo, _ := d.ReadReg(RegLimitLo)
	hi, _ := d.ReadReg(RegLimitHi)
	if lo != 7 || hi != 1 {
		t.Errorf("expect readback = %d,%d", lo, hi)
	}
}

func TestSwitchDeviceHighWords(t *testing.T) {
	// Reuse the switch from the main test file's helper inline.
	d := mkSwitchDevice(t)
	for _, reg := range []uint32{
		RegSwFlitsRouted, RegSwFlitsRouted + 1,
		RegSwPacketsRouted, RegSwPacketsRouted + 1,
		RegSwBlocked, RegSwBlocked + 1,
		RegSwCycles + 1, RegSubtype, RegCtrl,
	} {
		if _, err := d.ReadReg(reg); err != nil {
			t.Errorf("reg 0x%x: %v", reg, err)
		}
	}
}

func TestTRDeviceP95Register(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.TraceDriven)
	d := NewTRDevice(tr)
	feedTR(tr, in, cr, 8, 2)
	p95, err := d.ReadReg(RegTRNetLatP95)
	if err != nil {
		t.Fatal(err)
	}
	mx, _ := d.ReadReg(RegTRNetLatMax)
	if p95 == 0 {
		t.Error("p95 register zero after traffic")
	}
	// The histogram bound is a bin upper edge: >= the true p95 and
	// within one bin width above the max.
	if uint64(p95) > uint64(mx)+1 {
		t.Errorf("p95 bound %d above max+binwidth %d", p95, mx+1)
	}
}
