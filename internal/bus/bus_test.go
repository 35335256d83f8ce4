package bus

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// ram is a trivial register-file device for tests.
type ram struct {
	name string
	regs map[uint32]uint32
}

func newRAM(name string) *ram { return &ram{name: name, regs: map[uint32]uint32{}} }

func (r *ram) DeviceName() string { return r.name }
func (r *ram) ReadReg(reg uint32) (uint32, error) {
	if reg >= RegsPerDevice {
		return 0, fmt.Errorf("reg %d out of range", reg)
	}
	return r.regs[reg], nil
}
func (r *ram) WriteReg(reg, v uint32) error {
	if reg >= RegsPerDevice {
		return fmt.Errorf("reg %d out of range", reg)
	}
	r.regs[reg] = v
	return nil
}

func TestAddrFields(t *testing.T) {
	a := MakeAddr(3, 1023, 4095)
	if a.Bus() != 3 || a.Device() != 1023 || a.Reg() != 4095 {
		t.Errorf("fields = %d %d %d", a.Bus(), a.Device(), a.Reg())
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

// Property: address round trip for all field values in range.
func TestAddrRoundTripProperty(t *testing.T) {
	f := func(b, d, r uint32) bool {
		b %= NumBuses
		d %= DevicesPerBus
		r %= RegsPerDevice
		a := MakeAddr(b, d, r)
		return a.Bus() == b && a.Device() == d && a.Reg() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttachErrors(t *testing.T) {
	s := NewSystem()
	if err := s.Attach(0, 0, nil); err == nil {
		t.Error("nil device accepted")
	}
	if err := s.Attach(NumBuses, 0, newRAM("x")); err == nil {
		t.Error("bad bus accepted")
	}
	if err := s.Attach(0, DevicesPerBus, newRAM("x")); err == nil {
		t.Error("bad slot accepted")
	}
	if err := s.Attach(0, 5, newRAM("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(0, 5, newRAM("b")); err == nil {
		t.Error("double attach accepted")
	}
}

func TestReadWrite(t *testing.T) {
	s := NewSystem()
	if err := s.Attach(1, 7, newRAM("r")); err != nil {
		t.Fatal(err)
	}
	a := MakeAddr(1, 7, 0x10)
	if err := s.Write(a, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(a)
	if err != nil || v != 0xCAFE {
		t.Errorf("read = %x, %v", v, err)
	}
	// Unmapped address.
	if _, err := s.Read(MakeAddr(0, 0, 0)); !errors.Is(err, ErrNoDevice) {
		t.Errorf("unmapped read err = %v", err)
	}
	if err := s.Write(MakeAddr(2, 9, 0), 1); !errors.Is(err, ErrNoDevice) {
		t.Errorf("unmapped write err = %v", err)
	}
}

func TestRead64(t *testing.T) {
	s := NewSystem()
	if err := s.Attach(0, 1, newRAM("r")); err != nil {
		t.Fatal(err)
	}
	lo := MakeAddr(0, 1, 0x20)
	hi := MakeAddr(0, 1, 0x21)
	if err := s.Write(lo, 0xDDCCBBAA); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(hi, 0x11223344); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read64(lo)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11223344DDCCBBAA {
		t.Errorf("read64 = %x", v)
	}
	if _, err := s.Read64(MakeAddr(3, 3, 0)); err == nil {
		t.Error("unmapped read64 succeeded")
	}
}

func TestAttachNext(t *testing.T) {
	s := NewSystem()
	d0, err := s.AttachNext(2, newRAM("a"))
	if err != nil || d0 != 0 {
		t.Fatalf("first slot = %d, %v", d0, err)
	}
	d1, err := s.AttachNext(2, newRAM("b"))
	if err != nil || d1 != 1 {
		t.Fatalf("second slot = %d, %v", d1, err)
	}
	if _, err := s.AttachNext(NumBuses, newRAM("c")); err == nil {
		t.Error("bad bus accepted")
	}
	// Fill a hole: detach is not supported, so attach explicit then next.
	s2 := NewSystem()
	if err := s2.Attach(0, 0, newRAM("x")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Attach(0, 2, newRAM("y")); err != nil {
		t.Fatal(err)
	}
	d, err := s2.AttachNext(0, newRAM("z"))
	if err != nil || d != 1 {
		t.Errorf("hole slot = %d, %v", d, err)
	}
}

func TestFindAndAttachments(t *testing.T) {
	s := NewSystem()
	if err := s.Attach(1, 3, newRAM("tg0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(0, 9, newRAM("tr0")); err != nil {
		t.Fatal(err)
	}
	a, ok := s.Find("tg0")
	if !ok || a.Bus() != 1 || a.Device() != 3 {
		t.Errorf("find = %v, %v", a, ok)
	}
	if _, ok := s.Find("nope"); ok {
		t.Error("missing device found")
	}
	at := s.Attachments()
	if len(at) != 2 {
		t.Fatalf("attachments = %d", len(at))
	}
	// Ordered by (bus, dev): tr0 (bus 0) first.
	if at[0].Device.DeviceName() != "tr0" || at[1].Device.DeviceName() != "tg0" {
		t.Errorf("order: %s, %s", at[0].Device.DeviceName(), at[1].Device.DeviceName())
	}
}

func TestDeviceErrorWrapped(t *testing.T) {
	s := NewSystem()
	if err := s.Attach(0, 0, newRAM("r")); err != nil {
		t.Fatal(err)
	}
	// reg offset outside device range is masked by MakeAddr, so drive
	// the device error through a direct out-of-range write via a device
	// that rejects a specific register instead.
	if err := s.Write(MakeAddr(0, 0, RegsPerDevice-1), 5); err != nil {
		t.Errorf("in-range write failed: %v", err)
	}
}
