package state

import (
	"bytes"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	w := &Writer{}
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-12345)
	w.Int(42)
	w.U32(0xDEADBEEF)
	w.U16(65535)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.F64(-1.5e300)
	w.F64(math.NaN())
	w.Blob([]byte{1, 2, 3})
	w.String("link0.s0-s1")

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 max = %d", got)
	}
	if got := r.I64(); got != -12345 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Bool(); got {
		t.Errorf("Bool = %v", got)
	}
	if got := r.F64(); got != -1.5e300 {
		t.Errorf("F64 = %g", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %g", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.String(); got != "link0.s0-s1" {
		t.Errorf("String = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated varint
	if got := r.U64(); got != 0 {
		t.Errorf("poisoned U64 = %d", got)
	}
	if r.Err() == nil {
		t.Fatal("no sticky error after truncated varint")
	}
	// Every later read stays zero-valued and keeps the first error.
	first := r.Err()
	_ = r.String()
	_ = r.F64()
	if r.Err() != first {
		t.Errorf("sticky error replaced: %v", r.Err())
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	w := &Writer{}
	w.U64(1)
	w.U64(2)
	r := NewReader(w.Bytes())
	r.U64()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

func TestBlobLengthGuard(t *testing.T) {
	w := &Writer{}
	w.U64(1 << 40) // blob length far beyond the buffer
	r := NewReader(w.Bytes())
	if b := r.Blob(); b != nil {
		t.Errorf("oversized blob returned %d bytes", len(b))
	}
	if r.Err() == nil {
		t.Fatal("oversized blob length not rejected")
	}
}

func TestSnapshotFraming(t *testing.T) {
	secs := []Frame{
		{Name: []byte("engine"), Type: []byte("*engine.Engine"), Body: []byte{1, 2}},
		{Name: []byte("tg0"), Type: []byte("*traffic.TG"), Body: nil},
	}
	buf := AppendHeader(nil, "paper-ref", len(secs))
	for _, s := range secs {
		buf = AppendSection(buf, string(s.Name), string(s.Type), s.Body)
	}
	f, err := ParseSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Platform) != "paper-ref" {
		t.Errorf("platform name %q", f.Platform)
	}
	if f.Count != len(secs) {
		t.Fatalf("%d sections, want %d", f.Count, len(secs))
	}
	for i := range secs {
		got := f.Next()
		if !bytes.Equal(got.Name, secs[i].Name) || !bytes.Equal(got.Type, secs[i].Type) ||
			!bytes.Equal(got.Body, secs[i].Body) {
			t.Errorf("section %d = %+v, want %+v", i, got, secs[i])
		}
	}
}

func TestSnapshotFramingRejects(t *testing.T) {
	good := AppendSection(AppendHeader(nil, "p", 1), "engine", "t", []byte{9})

	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"truncated", good[:len(good)-1]},
		{"version skew", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = byte(Version + 1) // version varint follows the magic
			return b
		}()},
	}
	for _, tc := range cases {
		if _, err := ParseSnapshot(tc.raw); err == nil {
			t.Errorf("%s: ParseSnapshot accepted malformed input", tc.name)
		}
	}
}

// FuzzSnapshotRoundTrip drives the codec two ways: arbitrary bytes must
// decode without panicking, and any header+sections that do decode must
// re-encode to the identical byte stream (the codec is canonical, which
// is what makes golden-fixture drift detection meaningful).
func FuzzSnapshotRoundTrip(f *testing.F) {
	seed := AppendHeader(nil, "fuzz", 2)
	seed = AppendSection(seed, "a", "T", []byte{1, 2, 3})
	seed = AppendSection(seed, "b", "U", nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("NSNP"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := ParseSnapshot(raw)
		if err != nil {
			return
		}
		out := AppendHeader(nil, string(fr.Platform), fr.Count)
		for i := 0; i < fr.Count; i++ {
			s := fr.Next()
			out = AppendSection(out, string(s.Name), string(s.Type), s.Body)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("re-encode differs: %d bytes in, %d out", len(raw), len(out))
		}
	})
}
