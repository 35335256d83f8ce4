package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
)

func sample() *Trace {
	return &Trace{
		Name: "app0",
		Records: []Record{
			{Cycle: 0, Dst: 100, Len: 4},
			{Cycle: 10, Dst: 101, Len: 2},
			{Cycle: 10, Dst: 100, Len: 1},
			{Cycle: 25, Dst: 102, Len: 8},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	var nilTrace *Trace
	if err := nilTrace.Validate(); err == nil {
		t.Error("nil trace accepted")
	}
	bad := &Trace{Records: []Record{{Cycle: 5, Dst: 1, Len: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-length record accepted")
	}
	bad = &Trace{Records: []Record{{Cycle: 5, Dst: 1, Len: 1}, {Cycle: 4, Dst: 1, Len: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("decreasing cycles accepted")
	}
}

func TestDerivedQuantities(t *testing.T) {
	tr := sample()
	if tr.TotalFlits() != 15 {
		t.Errorf("flits = %d", tr.TotalFlits())
	}
	if tr.Duration() != 25 {
		t.Errorf("duration = %d", tr.Duration())
	}
	if got := tr.OfferedLoad(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("load = %v, want 0.6", got)
	}
	empty := &Trace{}
	if empty.Duration() != 0 || empty.OfferedLoad() != 0 {
		t.Error("empty trace derived values nonzero")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d: %v != %v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n1 2 3\n",
		"# nocemu-trace v1\nnot numbers\n",
		"# nocemu-trace v1\n5 1 0\n",        // zero length
		"# nocemu-trace v1\n5 1 1\n4 1 1\n", // decreasing
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# nocemu-trace v1\n# name: x\n\n# comment\n3 7 2\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "x" || len(tr.Records) != 1 || tr.Records[0].Dst != 7 {
		t.Errorf("parsed = %+v", tr)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d differs", i)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:3])); err == nil {
		t.Error("truncated magic accepted")
	}
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated records accepted")
	}
}

// Property: both formats round-trip arbitrary valid traces.
func TestFormatsRoundTripProperty(t *testing.T) {
	f := func(gaps []uint8, lens []uint8, name string) bool {
		if len(name) > 100 {
			name = name[:100]
		}
		tr := &Trace{Name: strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return '_'
			}
			return r
		}, name)}
		cycle := uint64(0)
		for i := range gaps {
			cycle += uint64(gaps[i])
			l := uint16(1)
			if i < len(lens) {
				l = uint16(lens[i]%32) + 1
			}
			tr.Records = append(tr.Records, Record{Cycle: cycle, Dst: flit.EndpointID(i % 7), Len: l})
		}
		var tb, bb bytes.Buffer
		if err := Write(&tb, tr); err != nil {
			return false
		}
		if err := WriteBinary(&bb, tr); err != nil {
			return false
		}
		t1, err := Read(&tb)
		if err != nil {
			return false
		}
		t2, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		if len(t1.Records) != len(tr.Records) || len(t2.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if t1.Records[i] != tr.Records[i] || t2.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthBurstShape(t *testing.T) {
	tr, err := SynthBurst(BurstConfig{
		Name: "b", Dst: 100, NumBursts: 3, PacketsPerBurst: 4,
		FlitsPerPacket: 2, Load: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 12 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	// Burst flits = 8, load 0.5 -> period 16.
	if tr.Records[4].Cycle != 16 {
		t.Errorf("second burst starts at %d, want 16", tr.Records[4].Cycle)
	}
	// Within a burst, packets are back to back (2 cycles apart).
	if tr.Records[1].Cycle-tr.Records[0].Cycle != 2 {
		t.Errorf("intra-burst spacing = %d", tr.Records[1].Cycle-tr.Records[0].Cycle)
	}
	for _, r := range tr.Records {
		if r.Len != 2 || r.Dst != 100 {
			t.Errorf("record %+v", r)
		}
	}
}

func TestSynthBurstLoadApproximation(t *testing.T) {
	tr, err := SynthBurst(BurstConfig{
		Name: "b", Dst: 1, NumBursts: 50, PacketsPerBurst: 8,
		FlitsPerPacket: 4, Load: 0.45,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := tr.OfferedLoad()
	if math.Abs(got-0.45) > 0.03 {
		t.Errorf("offered load = %v, want ~0.45", got)
	}
}

func TestSynthBurstValidation(t *testing.T) {
	bad := []BurstConfig{
		{NumBursts: 0, PacketsPerBurst: 1, FlitsPerPacket: 1, Load: 0.5},
		{NumBursts: 1, PacketsPerBurst: 0, FlitsPerPacket: 1, Load: 0.5},
		{NumBursts: 1, PacketsPerBurst: 1, FlitsPerPacket: 0, Load: 0.5},
		{NumBursts: 1, PacketsPerBurst: 1, FlitsPerPacket: 1, Load: 0},
		{NumBursts: 1, PacketsPerBurst: 1, FlitsPerPacket: 1, Load: 1.5},
		{NumBursts: 1, PacketsPerBurst: 1, FlitsPerPacket: 70000, Load: 0.5},
	}
	for i, cfg := range bad {
		if _, err := SynthBurst(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSynthCBR(t *testing.T) {
	tr, err := SynthCBR(CBRConfig{Name: "c", Dst: 5, NumPackets: 10, Len: 3, Period: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 10 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.Records[9].Cycle != 90 {
		t.Errorf("last cycle = %d", tr.Records[9].Cycle)
	}
	if math.Abs(tr.OfferedLoad()-3.0/9.0) > 0.05 {
		t.Errorf("load = %v", tr.OfferedLoad())
	}
	if _, err := SynthCBR(CBRConfig{NumPackets: 1, Len: 5, Period: 3}); err == nil {
		t.Error("period < len accepted")
	}
	if _, err := SynthCBR(CBRConfig{NumPackets: 0, Len: 1, Period: 3}); err == nil {
		t.Error("0 packets accepted")
	}
}

func TestSummarize(t *testing.T) {
	empty := (&Trace{}).Summarize()
	if empty.Records != 0 || empty.MeanLen != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	// CBR: zero burstiness.
	cbr, err := SynthCBR(CBRConfig{Name: "c", Dst: 1, NumPackets: 20, Len: 3, Period: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := cbr.Summarize()
	if s.Records != 20 || s.MinLen != 3 || s.MaxLen != 3 || s.MeanLen != 3 {
		t.Errorf("cbr summary = %+v", s)
	}
	if s.Burstiness != 0 {
		t.Errorf("cbr burstiness = %v, want 0", s.Burstiness)
	}
	if s.MeanGap != 10 {
		t.Errorf("cbr mean gap = %v", s.MeanGap)
	}
	if s.Destinations != 1 {
		t.Errorf("destinations = %d", s.Destinations)
	}
	// Burst trace: strictly positive burstiness.
	b, err := SynthBurst(BurstConfig{
		Name: "b", Dst: 2, NumBursts: 10, PacketsPerBurst: 8,
		FlitsPerPacket: 4, Load: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb := b.Summarize()
	if sb.Burstiness <= 1 {
		t.Errorf("burst trace burstiness = %v, want > 1", sb.Burstiness)
	}
	if sb.OfferedLoad <= 0.2 || sb.OfferedLoad >= 0.4 {
		t.Errorf("burst load = %v", sb.OfferedLoad)
	}
}
