package bus

import "testing"

// FuzzAddr checks the MakeAddr/decode round trip: for arbitrary field
// values, the assembled address decodes back to the masked fields, and
// re-assembling the decoded fields reproduces the address bit for bit.
func FuzzAddr(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(3), uint32(DevicesPerBus-1), uint32(4095))
	f.Add(uint32(1), uint32(2), uint32(0x010))
	f.Add(uint32(4), uint32(DevicesPerBus), uint32(4096)) // one past each field
	f.Add(^uint32(0), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, busN, dev, reg uint32) {
		a := MakeAddr(busN, dev, reg)
		if got, want := a.Bus(), busN&(NumBuses-1); got != want {
			t.Fatalf("MakeAddr(%d,%d,%d).Bus() = %d, want %d", busN, dev, reg, got, want)
		}
		if got, want := a.Device(), dev&(DevicesPerBus-1); got != want {
			t.Fatalf("MakeAddr(%d,%d,%d).Device() = %d, want %d", busN, dev, reg, got, want)
		}
		if got, want := a.Reg(), reg&(RegsPerDevice-1); got != want {
			t.Fatalf("MakeAddr(%d,%d,%d).Reg() = %d, want %d", busN, dev, reg, got, want)
		}
		if back := MakeAddr(a.Bus(), a.Device(), a.Reg()); back != a {
			t.Fatalf("re-assembled address %v != %v", back, a)
		}
	})
}
