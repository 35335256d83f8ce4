package regmap

import (
	"math"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/receptor"
)

// --- TR histogram readout edge cases -------------------------------

// TestTRHistIdxOutOfRange: a bin index past HIST_BINS is a bus error,
// not a silent zero.
func TestTRHistIdxOutOfRange(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	feedTR(tr, in, cr, 2, 2)
	if err := d.WriteReg(RegHistSel, HistSize); err != nil {
		t.Fatal(err)
	}
	bins, err := d.ReadReg(RegHistBins)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegHistIdx, bins); err != nil {
		t.Fatal(err) // the index write itself is unchecked; the read validates
	}
	if _, err := d.ReadReg(RegHistData); err == nil {
		t.Error("out-of-range HIST_DATA read succeeded")
	}
	if _, err := d.ReadReg(RegHistDataHi); err == nil {
		t.Error("out-of-range HIST_DATA_HI read succeeded")
	}
	// Back in range, the readout works again.
	if err := d.WriteReg(RegHistIdx, bins-1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadReg(RegHistData); err != nil {
		t.Errorf("in-range HIST_DATA read: %v", err)
	}
}

// TestTRHistSelInvalid: HIST_SEL rejects selectors beyond the defined
// histograms and keeps its previous value.
func TestTRHistSelInvalid(t *testing.T) {
	tr, _, _ := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	if err := d.WriteReg(RegHistSel, HistGap); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegHistSel, HistLat+1); err == nil {
		t.Error("invalid HIST_SEL accepted")
	}
	if v, _ := d.ReadReg(RegHistSel); v != HistGap {
		t.Errorf("HIST_SEL = %d after rejected write, want %d", v, HistGap)
	}
}

// TestTRHistReadoutAfterReset: CTRL reset-stats clears the bins but the
// readout window stays valid (bins/width unchanged, counts zero).
func TestTRHistReadoutAfterReset(t *testing.T) {
	tr, in, cr := mkTR(t, receptor.Stochastic)
	d := NewTRDevice(tr)
	feedTR(tr, in, cr, 3, 2)
	if err := d.WriteReg(RegHistSel, HistSize); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(RegHistIdx, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegHistData); v != 3 {
		t.Fatalf("size bin[2] = %d before reset", v)
	}
	if err := d.WriteReg(RegCtrl, CtrlResetStats); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegTRPackets); v != 0 {
		t.Errorf("packets = %d after reset", v)
	}
	if v, err := d.ReadReg(RegHistData); err != nil || v != 0 {
		t.Errorf("size bin[2] after reset = %d, %v", v, err)
	}
	if v, _ := d.ReadReg(RegHistBins); v != 8 {
		t.Errorf("bins = %d after reset", v)
	}
	if v, _ := d.ReadReg(RegHistWidth); v != 1 {
		t.Errorf("width = %d after reset", v)
	}
}

// --- link bank ------------------------------------------------------

func TestLinkDevice(t *testing.T) {
	idle, l := link.NewLink("link0"), link.NewLink("link1")
	d := NewLinkDevice([]*link.Link{idle, l})
	if v, _ := d.ReadReg(RegType); v != TypeLink {
		t.Errorf("type = %d", v)
	}
	if v, _ := d.ReadReg(RegLinkCount); v != 2 {
		t.Errorf("link count = %d", v)
	}
	if err := d.WriteReg(RegLinkSel, 1); err != nil {
		t.Fatal(err)
	}

	f := &flit.Flit{Kind: flit.HeadTail}
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	l.Commit(0)
	l.Take()
	l.Commit(1)
	l.Commit(2)

	if v, _ := d.ReadReg(RegLinkFlits); v != 1 {
		t.Errorf("flits = %d", v)
	}
	if v, _ := d.ReadReg(RegLinkBusy); v != 1 {
		t.Errorf("busy = %d", v)
	}
	if v, _ := d.ReadReg(RegLinkCycles); v != 3 {
		t.Errorf("cycles = %d", v)
	}
	if v, _ := d.ReadReg(RegLinkOverruns); v != 0 {
		t.Errorf("overruns = %d", v)
	}

	// Fault injection over the bus.
	if err := d.WriteReg(RegLinkFault, uint32(link.FaultCorrupt)); err != nil {
		t.Fatal(err)
	}
	if l.Fault() != link.FaultCorrupt {
		t.Errorf("fault = %d", l.Fault())
	}
	if v, _ := d.ReadReg(RegLinkFault); v != uint32(link.FaultCorrupt) {
		t.Errorf("fault readback = %d", v)
	}
	if err := d.WriteReg(RegLinkFault, 3); err == nil {
		t.Error("invalid fault mode accepted")
	}

	// Reset-stats over the bus.
	if err := d.WriteReg(RegCtrl, CtrlResetStats); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegLinkCycles); v != 0 {
		t.Errorf("cycles = %d after reset", v)
	}
	if idle.Fault() != link.FaultNone {
		t.Errorf("the unselected link's fault = %d", idle.Fault())
	}

	// Past LINK_COUNT every per-link register is a bus error, on both
	// halves of the 64-bit counters, and a write reaches no link.
	for _, sel := range []uint32{2, 3, math.MaxUint32} {
		if err := d.WriteReg(RegLinkSel, sel); err != nil {
			t.Fatal(err)
		}
		for reg := uint32(RegLinkFlits); reg <= RegLinkHeld+1; reg++ {
			if v, err := d.ReadReg(reg); err == nil {
				t.Errorf("LINK_SEL %d: read of 0x%03x = %d, want a bus error", sel, reg, v)
			}
		}
		for _, reg := range []uint32{RegCtrl, RegLinkFault} {
			if v, err := d.ReadReg(reg); err == nil {
				t.Errorf("LINK_SEL %d: read of 0x%03x = %d, want a bus error", sel, reg, v)
			}
			if err := d.WriteReg(reg, 0); err == nil {
				t.Errorf("LINK_SEL %d: write of 0x%03x accepted", sel, reg)
			}
		}
	}
}

// --- pool bank ------------------------------------------------------

func TestPoolDevice(t *testing.T) {
	p := flit.NewPool()
	sh := p.Shard("tg1", 1)
	d := NewPoolDevice(p)
	if v, _ := d.ReadReg(RegType); v != TypePool {
		t.Errorf("type = %d", v)
	}
	if v, _ := d.ReadReg(RegPoolShards); v != 1 {
		t.Errorf("shards = %d", v)
	}

	f := sh.Acquire()
	f.Src = 1
	if v, _ := d.ReadReg(RegPoolAcquired); v != 1 {
		t.Errorf("acquired = %d", v)
	}
	if v, _ := d.ReadReg(RegPoolLive); v != 1 {
		t.Errorf("live = %d", v)
	}
	p.Release(f)
	if v, _ := d.ReadReg(RegPoolReleased); v != 1 {
		t.Errorf("released = %d", v)
	}
	if v, _ := d.ReadReg(RegPoolLive); v != 0 {
		t.Errorf("live = %d after release", v)
	}
	if v, _ := d.ReadReg(RegPoolAllocated); v != 1 {
		t.Errorf("allocated = %d", v)
	}

	// Shard window.
	if err := d.WriteReg(RegShardSel, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadReg(RegShardOwner); v != 1 {
		t.Errorf("shard owner = %d", v)
	}
	if v, _ := d.ReadReg(RegShardAcquired); v != 1 {
		t.Errorf("shard acquired = %d", v)
	}
	// Out of range, every shard register is a bus error, on both halves
	// of the 64-bit counters.
	for _, sel := range []uint32{1, 2, math.MaxUint32} {
		if err := d.WriteReg(RegShardSel, sel); err != nil {
			t.Fatal(err)
		}
		for _, reg := range []uint32{
			RegShardOwner,
			RegShardAcquired, RegShardAcquired + 1,
			RegShardReleased, RegShardReleased + 1,
			RegShardAlloc, RegShardAlloc + 1,
		} {
			if v, err := d.ReadReg(reg); err == nil {
				t.Errorf("SHARD_SEL %d: read of 0x%03x = %d, want a bus error", sel, reg, v)
			}
		}
	}
}
