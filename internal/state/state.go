// Package state implements the versioned binary snapshot codec every
// stateful layer serializes through (DESIGN.md §13). A snapshot is a
// header followed by framed sections — one per stateful component, in
// platform build order — so restore can verify, section by section,
// that the saved schema matches the running code and fail loudly on
// any drift instead of silently misinterpreting bytes.
//
// The primitive encoding is deliberately small: unsigned varints for
// integers (snapshot state is dominated by small counters), IEEE-754
// bits for floats, and length-prefixed byte strings. There is no
// reflection and no per-type tagging below the section level; a
// section's layout is defined by its component's SaveState method and
// versioned by the snapshot-wide format version.
package state

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Magic marks a snapshot stream.
var Magic = [4]byte{'N', 'S', 'N', 'P'}

// Version is the snapshot format version. Bump it whenever any
// component's SaveState layout changes; Restore rejects other versions.
const Version uint16 = 1

// maxBlob bounds a single length-prefixed blob (section payloads,
// strings). Guards against corrupt or adversarial length fields; real
// sections are far smaller.
const maxBlob = 1 << 30

// Writer accumulates a snapshot section (or a whole snapshot) in
// memory. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the Writer, keeping its storage.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 appends a signed varint (zigzag).
func (w *Writer) I64(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U32 appends a uint32 as a varint.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U16 appends a uint16 as a varint.
func (w *Writer) U16(v uint16) { w.U64(uint64(v)) }

// U8 appends one raw byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern (bit-exact, NaN
// payloads included).
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf = append(w.buf, b[:]...)
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a snapshot section. Decoding errors are sticky: the
// first malformed field poisons the reader, every later read returns
// zero values, and Err reports the failure — so component LoadState
// bodies can decode straight through and check once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset points the Reader at b with no error, so one Reader can decode
// section after section.
func (r *Reader) Reset(b []byte) { *r = Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// U64 reads an unsigned varint. Non-minimal encodings are rejected:
// the codec is canonical (one value, one byte sequence), which is what
// lets golden-fixture comparison detect drift byte-for-byte.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("state: truncated uvarint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("state: non-minimal uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// I64 reads a signed varint (zigzag, canonical like U64).
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("state: truncated varint at offset %d", r.off)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("state: non-minimal varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// U32 reads a uint32, rejecting out-of-range values.
func (r *Reader) U32() uint32 {
	v := r.U64()
	if v > math.MaxUint32 {
		r.fail("state: value %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

// U16 reads a uint16, rejecting out-of-range values.
func (r *Reader) U16() uint16 {
	v := r.U64()
	if v > math.MaxUint16 {
		r.fail("state: value %d overflows uint16", v)
		return 0
	}
	return uint16(v)
}

// U8 reads one raw byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("state: truncated byte at offset %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a bool, rejecting encodings other than 0 or 1 (a strict
// decode keeps the fuzzer honest about canonical round-trips).
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("state: bad bool byte 0x%02x", v)
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("state: truncated float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Blob reads a length-prefixed byte string (aliasing the input buffer).
func (r *Reader) Blob() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxBlob || n > uint64(len(r.buf)-r.off) {
		r.fail("state: blob length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }

// Match reads a length-prefixed string and reports whether it is want,
// comparing in place: got is want itself on a match, so a LoadState
// that checks a name against its construction allocates nothing, and a
// copy of what was read otherwise (empty after a decoding error).
func (r *Reader) Match(want string) (got string, ok bool) {
	b := r.Blob()
	if r.err != nil {
		return "", false
	}
	if string(b) == want {
		return want, true
	}
	return string(b), false
}

// Close verifies the section was consumed exactly: no sticky error and
// no trailing bytes. Every LoadState should end with it (directly or
// via the section walker).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("state: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}

// AppendHeader appends the snapshot stream header to b.
func AppendHeader(b []byte, platformName string, sections int) []byte {
	w := Writer{buf: append(b, Magic[:]...)}
	w.U16(Version)
	w.String(platformName)
	w.Int(sections)
	return w.buf
}

// AppendSection appends one framed section to b.
func AppendSection(b []byte, name, typ string, body []byte) []byte {
	w := Writer{buf: b}
	w.String(name)
	w.String(typ)
	w.Blob(body)
	return w.buf
}

// Frame is one section of a parsed snapshot. Its fields alias the bytes
// ParseSnapshot was given; a LoadState decodes the body and keeps none
// of it.
type Frame struct {
	Name, Type, Body []byte
}

// Frames is a snapshot whose framing ParseSnapshot has checked: the
// platform name, the section count, and the sections in order through
// Next, all aliasing the parsed bytes.
type Frames struct {
	Platform []byte
	Count    int
	r        Reader // over the section frames
}

// ParseSnapshot checks a whole snapshot's framing — magic, version,
// section count, every section frame, no trailing bytes — without
// copying any of it. Framing errors are returned verbatim so restore
// fails loudly, before any section is handed out.
func ParseSnapshot(raw []byte) (Frames, error) {
	if len(raw) < len(Magic) {
		return Frames{}, fmt.Errorf("state: snapshot truncated (%d bytes)", len(raw))
	}
	if [4]byte(raw[:4]) != Magic {
		return Frames{}, fmt.Errorf("state: bad snapshot magic %q", raw[:4])
	}
	sr := NewReader(raw[4:])
	if v := sr.U16(); sr.Err() == nil && v != Version {
		return Frames{}, fmt.Errorf("state: snapshot version %d, this build reads %d", v, Version)
	}
	f := Frames{Platform: sr.Blob(), Count: sr.Int()}
	if sr.Err() != nil {
		return Frames{}, sr.Err()
	}
	if f.Count < 0 || f.Count > 1<<20 {
		return Frames{}, fmt.Errorf("state: implausible section count %d", f.Count)
	}
	f.r = Reader{buf: sr.buf[sr.off:]}
	for i := 0; i < f.Count; i++ {
		sr.Blob()
		sr.Blob()
		sr.Blob()
		if sr.Err() != nil {
			return Frames{}, fmt.Errorf("state: section %d: %w", i, sr.Err())
		}
	}
	if err := sr.Close(); err != nil {
		return Frames{}, err
	}
	return f, nil
}

// Next returns the next section; call it Count times.
func (f *Frames) Next() Frame {
	return Frame{Name: f.r.Blob(), Type: f.r.Blob(), Body: f.r.Blob()}
}
