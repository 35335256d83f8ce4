package regmap

import (
	"testing"

	"nocemu/internal/probe"
)

// TestProbeSelectorsBusErrorPastCount: each probe selector serves its
// counters up to its last element and is a bus error, on both halves of
// every counter it selects, at its count and one past it — and KIND_SEL
// also at 0, which names no kind.
func TestProbeSelectorsBusErrorPastCount(t *testing.T) {
	c := probe.NewCollector(probe.Config{Window: 8})
	p := c.NewProbe("x")
	p.FlitInject(1, 1, 0, 1, 0)
	p.CreditStall(3, 1)
	p.CreditStall(9, 1)
	for cy := uint64(0); cy <= 16; cy++ {
		c.Tick(cy)
	}
	d := NewProbeDevice(c)
	numVCs, _ := d.ReadReg(RegProbeNumVCs)
	winCount, _ := d.ReadReg(RegProbeWinCount)
	if numVCs != 2 || winCount < 2 {
		t.Fatalf("NUM_VCS %d, WIN_COUNT %d: the stimulus is too thin to tell anything", numVCs, winCount)
	}
	for _, s := range []struct {
		name     string
		sel      uint32
		last     uint32 // the last element in range
		counters []uint32
		bad      []uint32 // out of range besides count and count+1
	}{
		{"KIND_SEL", RegProbeKindSel, uint32(probe.KindFF), []uint32{RegProbeKindCount}, []uint32{0}},
		{"VC_SEL", RegProbeVCSel, numVCs - 1, []uint32{RegProbeVCStalls}, nil},
		{"WIN_SEL", RegProbeWinSel, winCount - 1, []uint32{
			RegProbeWinInject, RegProbeWinEject, RegProbeWinRoute, RegProbeWinDrop,
			RegProbeWinStall, RegProbeWinOcc, RegProbeWinBusy,
		}, nil},
	} {
		if err := d.WriteReg(s.sel, s.last); err != nil {
			t.Fatal(err)
		}
		for _, reg := range s.counters {
			for _, half := range []uint32{reg, reg + 1} {
				if _, err := d.ReadReg(half); err != nil {
					t.Errorf("%s %d: read of 0x%03x: %v", s.name, s.last, half, err)
				}
			}
		}
		for _, sel := range append([]uint32{s.last + 1, s.last + 2}, s.bad...) {
			if err := d.WriteReg(s.sel, sel); err != nil {
				t.Fatal(err)
			}
			for _, reg := range s.counters {
				for _, half := range []uint32{reg, reg + 1} {
					if v, err := d.ReadReg(half); err == nil {
						t.Errorf("%s %d: read of 0x%03x = %d, want a bus error", s.name, sel, half, v)
					}
				}
			}
		}
	}
}
