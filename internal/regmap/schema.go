// Declarative register schema: the machinery every device bank is
// built from.
//
// Instead of hand-writing Read/Write switches with magic offsets, a
// device *declares* its registers on a Bank — name, offset, access
// mode, width and the closures that back them — and the Bank provides
// the bus.Device dispatch, the 64-bit read latch, and the metadata the
// documentation generator (`nocgen regs`) and the monitor rely on. One
// declaration therefore buys configuration, statistics extraction and
// documentation at once, which is the contract the paper's
// memory-mapped control plane implies. A device bank runs its
// declaration on first access (Lazy): the paper's monitor reads the
// bench of registers when a run ends, and a run that reads nothing pays
// for none of it.
//
// 64-bit counters are declared once (RO64/F64, or RO64Err/F64Err when a
// read can fail) and expand to a lo/hi register pair. Reading the LO
// register latches the HI word, so a lo-then-hi sequence over the bus
// observes one consistent 64-bit value even while the emulation advances
// between the two reads — the way a hardware monitor would read a wide
// counter. The latch is consumed by the HI read; a HI read with no
// pending latch samples fresh.
package regmap

import (
	"fmt"
	"math"
	"sort"
)

// Access is a register's access mode.
type Access uint8

// Register access modes.
const (
	// RO registers can only be read.
	RO Access = iota
	// RW registers support both read and write.
	RW
	// WO registers can only be written (e.g. SEED).
	WO
)

// String implements fmt.Stringer ("ro", "rw", "wo").
func (a Access) String() string {
	switch a {
	case RO:
		return "ro"
	case RW:
		return "rw"
	case WO:
		return "wo"
	}
	return fmt.Sprintf("access(%d)", a)
}

// RegSpec is the declared shape of one register — the schema entry the
// documentation generator renders.
type RegSpec struct {
	// Offset is the register offset within the device's 12-bit space.
	Offset uint32
	// Name is the register's schematic name (e.g. "OFFERED").
	Name string
	// Access is the access mode.
	Access Access
	// Doc is the one-line description.
	Doc string
	// Words is 1 for plain registers, 2 for 64-bit lo/hi pairs.
	Words int
	// Count is the number of consecutive registers a window spans
	// (0 for non-window registers).
	Count uint32
}

// reg64 is the shared state of a 64-bit register pair.
type reg64 struct {
	read func() (uint64, error)
	// latched holds the HI word captured by the last LO read; valid is
	// cleared when the HI read consumes it.
	latched uint32
	valid   bool
}

// regEntry is the dispatch record of one register offset.
type regEntry struct {
	spec  *RegSpec
	read  func() (uint32, error)
	write func(uint32) error
	// lo64/hi64 are set on the halves of a 64-bit pair.
	lo64, hi64 *reg64
}

// window is a contiguous run of registers served by indexed closures
// (the TG model-parameter window).
type window struct {
	spec  *RegSpec
	read  func(i uint32) (uint32, error)
	write func(i uint32, v uint32) error
}

// Bank is a declarative register bank. Devices declare registers with
// RO/RW/WO/RO64/F64/Window and their fallible forms; Bank implements
// bus.Device and exposes the declared schema via Specs.
type Bank struct {
	name string
	// declare is the device's declaration, run by the first register
	// access or schema query (ready); schema is nil until then. A
	// platform holds a bank per device and most runs never read most of
	// them. Unlocked, like the bus the banks sit on.
	declare func(*Bank)
	*schema
}

// schema is what a declaration fills in.
type schema struct {
	title   string
	note    string
	entries map[uint32]*regEntry
	windows []*window
	specs   []*RegSpec
}

// Lazy returns a bank for the named device instance that holds only
// declare until its first ReadReg, WriteReg, Specs or DocInfo, which
// runs it once on the then empty bank. Staging registers a declaration
// keeps in its closure start at zero either way.
func Lazy(name string, declare func(*Bank)) *Bank {
	return &Bank{name: name, declare: declare}
}

// ready runs a pending declaration.
func (b *Bank) ready() {
	if b.schema == nil {
		b.schema = &schema{entries: make(map[uint32]*regEntry)}
		b.declare(b)
	}
}

// Describe attaches documentation metadata: a bank title (the device
// class heading) and an optional free-form note.
func (b *Bank) Describe(title, note string) {
	b.title, b.note = title, note
}

// DocInfo returns the bank's documentation metadata.
func (b *Bank) DocInfo() (title, note string) {
	b.ready()
	return b.title, b.note
}

// DeviceName implements bus.Device.
func (b *Bank) DeviceName() string { return b.name }

// Specs returns the declared registers ordered by offset.
func (b *Bank) Specs() []RegSpec {
	b.ready()
	out := make([]RegSpec, len(b.specs))
	for i, s := range b.specs {
		out[i] = *s
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// claim reserves an offset, panicking on overlap — a bank with two
// registers at one offset is a construction bug, like a double engine
// registration.
func (b *Bank) claim(off uint32, e *regEntry) {
	if _, ok := b.entries[off]; ok {
		panic(fmt.Sprintf("regmap: bank %s declares register 0x%03x twice", b.name, off))
	}
	for _, w := range b.windows {
		if off >= w.spec.Offset && off < w.spec.Offset+w.spec.Count {
			panic(fmt.Sprintf("regmap: bank %s register 0x%03x overlaps window %s", b.name, off, w.spec.Name))
		}
	}
	b.entries[off] = e
}

// ROErr declares a read-only register backed by a fallible closure.
func (b *Bank) ROErr(off uint32, name, doc string, read func() (uint32, error)) {
	spec := &RegSpec{Offset: off, Name: name, Access: RO, Doc: doc, Words: 1}
	b.claim(off, &regEntry{spec: spec, read: read})
	b.specs = append(b.specs, spec)
}

// RO declares a read-only register.
func (b *Bank) RO(off uint32, name, doc string, read func() uint32) {
	b.ROErr(off, name, doc, func() (uint32, error) { return read(), nil })
}

// RW declares a read-write register.
func (b *Bank) RW(off uint32, name, doc string, read func() uint32, write func(uint32) error) {
	b.RWErr(off, name, doc, func() (uint32, error) { return read(), nil }, write)
}

// RWErr declares a read-write register whose read can fail.
func (b *Bank) RWErr(off uint32, name, doc string, read func() (uint32, error), write func(uint32) error) {
	spec := &RegSpec{Offset: off, Name: name, Access: RW, Doc: doc, Words: 1}
	b.claim(off, &regEntry{spec: spec, read: read, write: write})
	b.specs = append(b.specs, spec)
}

// WO declares a write-only register.
func (b *Bank) WO(off uint32, name, doc string, write func(uint32) error) {
	spec := &RegSpec{Offset: off, Name: name, Access: WO, Doc: doc, Words: 1}
	b.claim(off, &regEntry{spec: spec, write: write})
	b.specs = append(b.specs, spec)
}

// RO64 declares a 64-bit read-only counter as a lo/hi pair at off and
// off+1. Reading LO latches HI (tear-free lo-then-hi readout).
func (b *Bank) RO64(off uint32, name, doc string, read func() uint64) {
	b.RO64Err(off, name, doc, func() (uint64, error) { return read(), nil })
}

// RO64Err declares a 64-bit read-only register backed by a fallible
// closure; a failed read is a bus error on either half and latches
// nothing.
func (b *Bank) RO64Err(off uint32, name, doc string, read func() (uint64, error)) {
	spec := &RegSpec{Offset: off, Name: name, Access: RO, Doc: doc, Words: 2}
	r := &reg64{read: read}
	b.claim(off, &regEntry{spec: spec, lo64: r})
	b.claim(off+1, &regEntry{spec: spec, hi64: r})
	b.specs = append(b.specs, spec)
}

// F64 declares a float64 read-only register carried as the IEEE-754 bit
// pattern in a lo/hi pair — the monitor reads analyzer results (means,
// deviations) bit-exactly this way.
func (b *Bank) F64(off uint32, name, doc string, read func() float64) {
	b.RO64Err(off, name, doc+" (float64 bits)", func() (uint64, error) { return math.Float64bits(read()), nil })
}

// F64Err declares a float64 register backed by a fallible closure, as
// RO64Err.
func (b *Bank) F64Err(off uint32, name, doc string, read func() (float64, error)) {
	b.RO64Err(off, name, doc+" (float64 bits)", func() (uint64, error) {
		v, err := read()
		return math.Float64bits(v), err
	})
}

// Window declares count consecutive registers at base served by indexed
// closures; read/write may be nil to forbid that direction.
func (b *Bank) Window(base, count uint32, name string, access Access, doc string,
	read func(i uint32) (uint32, error), write func(i, v uint32) error) {
	if count == 0 {
		panic(fmt.Sprintf("regmap: bank %s window %s is empty", b.name, name))
	}
	for off := base; off < base+count; off++ {
		if _, ok := b.entries[off]; ok {
			panic(fmt.Sprintf("regmap: bank %s window %s overlaps register 0x%03x", b.name, name, off))
		}
	}
	spec := &RegSpec{Offset: base, Name: name, Access: access, Doc: doc, Words: 1, Count: count}
	b.windows = append(b.windows, &window{spec: spec, read: read, write: write})
	b.specs = append(b.specs, spec)
}

// Selected yields the element a selector register picks, or the bus
// error of a selector out of range.
type Selected[T any] func() (T, error)

// Select declares the selector register name at off — a plain RW
// register, any value accepted — and returns the element it selects:
// at(sel), or an "out of range" error when at reports none. Every
// register read through the result (Of, or a closure calling it) is
// then a bus error past the range, on both halves of a 64-bit pair.
func Select[T any](b *Bank, off uint32, name, doc string, at func(sel int) (T, bool)) Selected[T] {
	var sel uint32
	b.RW(off, name, doc, func() uint32 { return sel }, func(v uint32) error { sel = v; return nil })
	return func() (T, error) {
		e, ok := at(int(sel))
		if !ok {
			return e, fmt.Errorf("regmap: %s %s %d out of range", b.name, name, sel)
		}
		return e, nil
	}
}

// Of is the fallible register read of one field of the selected
// element, for ROErr, RO64Err or F64Err.
func Of[T, V any](s Selected[T], read func(T) V) func() (V, error) {
	return func() (V, error) {
		e, err := s()
		if err != nil {
			var zero V
			return zero, err
		}
		return read(e), nil
	}
}

// index is at for a slice: element i, or none past its end.
func index[T any](s []T, i int) (T, bool) {
	if i < 0 || i >= len(s) {
		var zero T
		return zero, false
	}
	return s[i], true
}

// ReadReg implements bus.Device by schema dispatch.
func (b *Bank) ReadReg(reg uint32) (uint32, error) {
	b.ready()
	if e, ok := b.entries[reg]; ok {
		switch {
		case e.lo64 != nil:
			v, err := e.lo64.read()
			e.lo64.latched, e.lo64.valid = uint32(v>>32), err == nil
			return uint32(v), err
		case e.hi64 != nil:
			if e.hi64.valid {
				e.hi64.valid = false
				return e.hi64.latched, nil
			}
			v, err := e.hi64.read()
			return uint32(v >> 32), err
		case e.read != nil:
			return e.read()
		}
		return 0, fmt.Errorf("regmap: read of write-only register 0x%03x (%s)", reg, e.spec.Name)
	}
	for _, w := range b.windows {
		if reg >= w.spec.Offset && reg < w.spec.Offset+w.spec.Count {
			if w.read == nil {
				return 0, fmt.Errorf("regmap: read of write-only register 0x%03x (%s)", reg, w.spec.Name)
			}
			return w.read(reg - w.spec.Offset)
		}
	}
	return 0, errBadReg("read", reg)
}

// WriteReg implements bus.Device by schema dispatch.
func (b *Bank) WriteReg(reg, v uint32) error {
	b.ready()
	if e, ok := b.entries[reg]; ok {
		if e.write == nil {
			return fmt.Errorf("regmap: write of read-only register 0x%03x (%s)", reg, e.spec.Name)
		}
		return e.write(v)
	}
	for _, w := range b.windows {
		if reg >= w.spec.Offset && reg < w.spec.Offset+w.spec.Count {
			if w.write == nil {
				return fmt.Errorf("regmap: write of read-only register 0x%03x (%s)", reg, w.spec.Name)
			}
			return w.write(reg-w.spec.Offset, v)
		}
	}
	return errBadReg("write", reg)
}
