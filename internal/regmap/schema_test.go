package regmap

import (
	"strings"
	"testing"
)

// TestRO64LatchTearFree drives the paper's wide-counter race: the
// counter rolls over between the LO and HI bus reads. The LO read
// latches the HI word, so the pair still composes the value sampled at
// the LO read instead of tearing.
func TestRO64LatchTearFree(t *testing.T) {
	v := uint64(0x0000_0000_FFFF_FFFF)
	b := Lazy("dev", func(b *Bank) {
		b.RO64(0x10, "CTR", "test counter", func() uint64 { return v })
	})

	lo, err := b.ReadReg(0x10)
	if err != nil {
		t.Fatal(err)
	}
	v++ // the emulation advances between the two bus transactions
	hi, err := b.ReadReg(0x11)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(hi)<<32 | uint64(lo); got != 0x0000_0000_FFFF_FFFF {
		t.Errorf("lo/hi pair read %#x, want the un-torn %#x", got, uint64(0x0000_0000_FFFF_FFFF))
	}

	// The latch was consumed: a fresh lo/hi pair sees the new value.
	lo, _ = b.ReadReg(0x10)
	hi, _ = b.ReadReg(0x11)
	if got := uint64(hi)<<32 | uint64(lo); got != 0x0000_0001_0000_0000 {
		t.Errorf("second pair read %#x, want %#x", got, uint64(0x0000_0001_0000_0000))
	}
}

// TestRO64HiWithoutLatchSamplesFresh: a standalone HI read (no pending
// LO latch) samples the live counter.
func TestRO64HiWithoutLatchSamplesFresh(t *testing.T) {
	v := uint64(5) << 32
	b := Lazy("dev", func(b *Bank) {
		b.RO64(0x10, "CTR", "test counter", func() uint64 { return v })
	})
	hi, err := b.ReadReg(0x11)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 5 {
		t.Errorf("standalone hi = %d, want 5", hi)
	}
}

func TestBankOverlapPanics(t *testing.T) {
	cases := []struct {
		name    string
		declare func(b *Bank)
	}{
		{"reg-on-reg", func(b *Bank) {
			b.RO(0x10, "A", "", func() uint32 { return 0 })
			b.RO(0x10, "B", "", func() uint32 { return 0 })
		}},
		{"pair-straddle", func(b *Bank) {
			b.RO(0x11, "A", "", func() uint32 { return 0 })
			b.RO64(0x10, "B", "", func() uint64 { return 0 })
		}},
		{"reg-in-window", func(b *Bank) {
			b.Window(0x20, 4, "W", RW, "",
				func(i uint32) (uint32, error) { return 0, nil },
				func(i, v uint32) error { return nil })
			b.RO(0x22, "A", "", func() uint32 { return 0 })
		}},
		{"window-on-reg", func(b *Bank) {
			b.RO(0x22, "A", "", func() uint32 { return 0 })
			b.Window(0x20, 4, "W", RW, "",
				func(i uint32) (uint32, error) { return 0, nil },
				func(i, v uint32) error { return nil })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("overlapping declaration did not panic")
				}
			}()
			Lazy("dev", tc.declare).Specs() // the first access declares
		})
	}
}

func TestAccessModeErrors(t *testing.T) {
	var seed uint32
	b := Lazy("dev", func(b *Bank) {
		b.RO(0x01, "STAT", "", func() uint32 { return 7 })
		b.WO(0x02, "SEED", "", func(v uint32) error { seed = v; return nil })
	})

	if _, err := b.ReadReg(0x02); err == nil || !strings.Contains(err.Error(), "write-only") {
		t.Errorf("WO read error = %v", err)
	}
	if err := b.WriteReg(0x01, 1); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("RO write error = %v", err)
	}
	if err := b.WriteReg(0x02, 42); err != nil || seed != 42 {
		t.Errorf("WO write: err=%v seed=%d", err, seed)
	}
	if _, err := b.ReadReg(0x300); err == nil {
		t.Error("unmapped read succeeded")
	}
	if err := b.WriteReg(0x300, 0); err == nil {
		t.Error("unmapped write succeeded")
	}
}

func TestWindowDispatch(t *testing.T) {
	store := make([]uint32, 4)
	b := Lazy("dev", func(b *Bank) {
		b.Window(0x20, 4, "PARAM", RW, "",
			func(i uint32) (uint32, error) { return store[i], nil },
			func(i, v uint32) error { store[i] = v; return nil })
	})
	for i := uint32(0); i < 4; i++ {
		if err := b.WriteReg(0x20+i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 4; i++ {
		if v, err := b.ReadReg(0x20 + i); err != nil || v != 100+i {
			t.Errorf("window[%d] = %d, %v", i, v, err)
		}
	}
	// One past the window is unmapped.
	if _, err := b.ReadReg(0x24); err == nil {
		t.Error("read past window succeeded")
	}
}

func TestSpecsSortedAndComplete(t *testing.T) {
	b := Lazy("dev", func(b *Bank) {
		b.RO64(0x10, "CTR", "", func() uint64 { return 0 })
		b.RO(0x00, "TYPE", "", func() uint32 { return 0 })
		b.Window(0x20, 8, "W", RO, "",
			func(i uint32) (uint32, error) { return 0, nil }, nil)
	})
	specs := b.Specs()
	if len(specs) != 3 {
		t.Fatalf("specs = %d, want 3 (pair declared once)", len(specs))
	}
	if specs[0].Name != "TYPE" || specs[1].Name != "CTR" || specs[2].Name != "W" {
		t.Errorf("spec order = %s,%s,%s", specs[0].Name, specs[1].Name, specs[2].Name)
	}
	if specs[1].Words != 2 || specs[2].Count != 8 {
		t.Errorf("spec metadata: words=%d count=%d", specs[1].Words, specs[2].Count)
	}
}

func TestReadOnlyWindowRejectsWrites(t *testing.T) {
	b := Lazy("dev", func(b *Bank) {
		b.Window(0x20, 2, "W", RO, "",
			func(i uint32) (uint32, error) { return i, nil }, nil)
	})
	if err := b.WriteReg(0x21, 1); err == nil {
		t.Error("write to read-only window succeeded")
	}
}
