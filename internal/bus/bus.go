// Package bus models the platform's internal interconnect: the
// memory-mapped register buses through which the paper's on-chip
// processor configures devices and extracts statistics.
//
// "The processor can access each component by accessing their specific
// addresses. In our design, we allow up to 4 internal busses and 1024
// devices in each internal bus." Each device decodes a 12-bit register
// offset. The device field is 18 bits wide rather than the paper's 10,
// so an address is [bus:2][device:18][reg:12], the whole 32-bit word:
// the paper's 4 × 1024 map is its low corner, and a platform of any
// size still gives every device an address.
package bus

import (
	"fmt"
	"sort"
)

const (
	// NumBuses is the number of internal buses (paper: 4).
	NumBuses = 4
	// DevicesPerBus is the device capacity of one bus (paper: 1024;
	// see the package comment).
	DevicesPerBus = 1 << devBits
	// RegsPerDevice is the register space decoded by one device.
	RegsPerDevice = 1 << 12

	regBits = 12
	devBits = 18
)

// Addr is a platform register address.
type Addr uint32

// MakeAddr assembles an address from bus, device and register fields.
// Each field is masked to its width, so MakeAddr(a.Bus(), a.Device(),
// a.Reg()) == a for every Addr and out-of-range inputs wrap instead of
// corrupting neighbouring fields.
func MakeAddr(bus, dev, reg uint32) Addr {
	return Addr((bus&(NumBuses-1))<<(devBits+regBits) |
		(dev&(DevicesPerBus-1))<<regBits |
		reg&(RegsPerDevice-1))
}

// Bus extracts the bus field.
func (a Addr) Bus() uint32 { return uint32(a) >> (devBits + regBits) & (NumBuses - 1) }

// Device extracts the device field.
func (a Addr) Device() uint32 { return uint32(a) >> regBits & (DevicesPerBus - 1) }

// Reg extracts the register offset.
func (a Addr) Reg() uint32 { return uint32(a) & (RegsPerDevice - 1) }

// String implements fmt.Stringer.
func (a Addr) String() string {
	return fmt.Sprintf("bus%d:dev%d:reg0x%03x", a.Bus(), a.Device(), a.Reg())
}

// Device is anything addressable on an internal bus: every emulation
// component exposes its parameterization and statistics registers this
// way, which is what lets the paper change emulation parameters without
// re-synthesizing hardware.
type Device interface {
	// DeviceName identifies the device in reports.
	DeviceName() string
	// ReadReg returns the value of a register.
	ReadReg(reg uint32) (uint32, error)
	// WriteReg stores a value into a register.
	WriteReg(reg uint32, v uint32) error
}

// ErrNoDevice is wrapped by accesses to unmapped addresses.
var ErrNoDevice = fmt.Errorf("bus: no device at address")

// ErrBusFull is wrapped by AttachNext when a bus has no free slot.
var ErrBusFull = fmt.Errorf("bus: no free device slot")

// Attachment records a mapped device.
type Attachment struct {
	Bus, Dev uint32
	Device   Device
}

// System is the full interconnect: NumBuses buses of DevicesPerBus
// slots.
type System struct {
	buses [NumBuses]map[uint32]Device
	// free[b] is a slot below which bus b has none free: devices are
	// never detached, so AttachNext resumes its search there.
	free [NumBuses]uint32

	reads, writes uint64
}

// NewSystem returns an empty interconnect.
func NewSystem() *System {
	s := &System{}
	for i := range s.buses {
		s.buses[i] = make(map[uint32]Device)
	}
	return s
}

// Attach maps a device at (bus, dev).
func (s *System) Attach(bus, dev uint32, d Device) error {
	if d == nil {
		return fmt.Errorf("bus: nil device")
	}
	if bus >= NumBuses {
		return fmt.Errorf("bus: bus %d out of range", bus)
	}
	if dev >= DevicesPerBus {
		return fmt.Errorf("bus: device slot %d out of range", dev)
	}
	if old, ok := s.buses[bus][dev]; ok {
		return fmt.Errorf("bus: slot bus%d:dev%d already holds %s", bus, dev, old.DeviceName())
	}
	s.buses[bus][dev] = d
	return nil
}

// AttachNext maps a device in the first free slot of the given bus and
// returns the slot index. A full bus reports ErrBusFull.
func (s *System) AttachNext(bus uint32, d Device) (uint32, error) {
	if bus >= NumBuses {
		return 0, fmt.Errorf("bus: bus %d out of range", bus)
	}
	for dev := s.free[bus]; dev < DevicesPerBus; dev++ {
		if _, ok := s.buses[bus][dev]; !ok {
			s.free[bus] = dev
			return dev, s.Attach(bus, dev, d)
		}
	}
	return 0, fmt.Errorf("%w: bus %d", ErrBusFull, bus)
}

// Lookup returns the device at (bus, dev).
func (s *System) Lookup(bus, dev uint32) (Device, bool) {
	if bus >= NumBuses {
		return nil, false
	}
	d, ok := s.buses[bus][dev]
	return d, ok
}

// Find returns the address slot of the first device with the given
// name.
func (s *System) Find(name string) (Addr, bool) {
	for b := uint32(0); b < NumBuses; b++ {
		devs := make([]uint32, 0, len(s.buses[b]))
		for dev := range s.buses[b] {
			devs = append(devs, dev)
		}
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		for _, dev := range devs {
			if s.buses[b][dev].DeviceName() == name {
				return MakeAddr(b, dev, 0), true
			}
		}
	}
	return 0, false
}

// Read performs a register read at the address.
func (s *System) Read(a Addr) (uint32, error) {
	d, ok := s.Lookup(a.Bus(), a.Device())
	if !ok {
		return 0, fmt.Errorf("%w %s", ErrNoDevice, a)
	}
	s.reads++
	v, err := d.ReadReg(a.Reg())
	if err != nil {
		return 0, fmt.Errorf("bus: read %s (%s): %w", a, d.DeviceName(), err)
	}
	return v, nil
}

// Write performs a register write at the address.
func (s *System) Write(a Addr, v uint32) error {
	d, ok := s.Lookup(a.Bus(), a.Device())
	if !ok {
		return fmt.Errorf("%w %s", ErrNoDevice, a)
	}
	s.writes++
	if err := d.WriteReg(a.Reg(), v); err != nil {
		return fmt.Errorf("bus: write %s (%s): %w", a, d.DeviceName(), err)
	}
	return nil
}

// Read64 reads a 64-bit value from two consecutive registers (lo at
// reg, hi at reg+1), the convention all devices use for wide counters.
func (s *System) Read64(a Addr) (uint64, error) {
	lo, err := s.Read(a)
	if err != nil {
		return 0, err
	}
	hi, err := s.Read(MakeAddr(a.Bus(), a.Device(), a.Reg()+1))
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Attachments lists every mapped device ordered by (bus, dev).
func (s *System) Attachments() []Attachment {
	var out []Attachment
	for b := uint32(0); b < NumBuses; b++ {
		devs := make([]uint32, 0, len(s.buses[b]))
		for dev := range s.buses[b] {
			devs = append(devs, dev)
		}
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
		for _, dev := range devs {
			out = append(out, Attachment{Bus: b, Dev: dev, Device: s.buses[b][dev]})
		}
	}
	return out
}

// Traffic returns the bus transaction counters (reads, writes).
func (s *System) Traffic() (reads, writes uint64) { return s.reads, s.writes }
