package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidates(t *testing.T) {
	if _, err := NewHistogram(0, 4); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := NewHistogram(4, 0); err == nil {
		t.Error("zero bins accepted")
	}
	h, err := NewHistogram(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 5 || h.BinWidth() != 10 {
		t.Errorf("bins=%d width=%d", h.NumBins(), h.BinWidth())
	}
}

func TestMustNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustNewHistogram(0, 1)
}

func TestHistogramBinning(t *testing.T) {
	h := MustNewHistogram(10, 3)
	for _, v := range []uint64{0, 9, 10, 19, 20, 29, 30, 100} {
		h.Add(v)
	}
	if h.Bin(0) != 2 || h.Bin(1) != 2 || h.Bin(2) != 2 {
		t.Errorf("bins = %d,%d,%d", h.Bin(0), h.Bin(1), h.Bin(2))
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %d", h.Overflow())
	}
	if h.count != 8 {
		t.Errorf("count = %d", h.count)
	}
	if h.min != 0 || h.max != 100 {
		t.Errorf("min=%d max=%d", h.min, h.max)
	}
	if h.Bin(-1) != 0 || h.Bin(99) != 0 {
		t.Error("out-of-range Bin() not zero")
	}
}

func TestHistogramMeanAndEmpty(t *testing.T) {
	h := MustNewHistogram(1, 4)
	if h.Mean() != 0 || h.count != 0 || h.max != 0 {
		t.Error("empty histogram stats nonzero")
	}
	h.Add(2)
	h.Add(4)
	if h.Mean() != 3 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.sum != 6 {
		t.Errorf("sum = %v", h.sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := MustNewHistogram(10, 10)
	for i := uint64(0); i < 100; i++ {
		h.Add(i)
	}
	if q := h.Quantile(0.5); q != 50 {
		t.Errorf("median bound = %d, want 50", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("q100 = %d, want 100", q)
	}
	if q := h.Quantile(0.0); q != 10 {
		t.Errorf("q0 = %d, want 10 (first nonempty bin bound)", q)
	}
	empty := MustNewHistogram(1, 2)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile nonzero")
	}
}

func TestHistogramReset(t *testing.T) {
	h := MustNewHistogram(10, 2)
	h.Add(5)
	h.Add(100)
	h.Reset()
	if h.count != 0 || h.Overflow() != 0 || h.Bin(0) != 0 || h.sum != 0 {
		t.Error("reset incomplete")
	}
	h.Add(3)
	if h.min != 3 || h.max != 3 {
		t.Error("min/max wrong after reset")
	}
}

func TestHistogramRender(t *testing.T) {
	h := MustNewHistogram(10, 2)
	h.Add(5)
	h.Add(5)
	h.Add(15)
	h.Add(1000)
	out := RenderBins(h.binWidth, h.bins, h.overflow, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("peak bin not full width: %q", lines[0])
	}
	if !strings.Contains(lines[2], "inf") {
		t.Errorf("no overflow row: %q", lines[2])
	}
	if empty := RenderBins(1, make([]uint64, 1), 0, 0); !strings.Contains(empty, "[") {
		t.Error("empty render malformed")
	}
}

// Property: histogram count equals samples added, and sum of bins plus
// overflow equals count.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		h := MustNewHistogram(7, 9)
		for _, s := range samples {
			h.Add(uint64(s))
		}
		var total uint64
		for i := 0; i < h.NumBins(); i++ {
			total += h.Bin(i)
		}
		total += h.Overflow()
		return total == uint64(len(samples)) && h.count == uint64(len(samples))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Error("empty accumulator nonzero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", w.Mean())
	}
	if math.Abs(w.Var()-4) > 1e-12 {
		t.Errorf("var = %v", w.Var())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("std = %v", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min=%v max=%v", w.Min(), w.Max())
	}
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 {
		t.Error("reset incomplete")
	}
}

// Property: Welford mean/var match the two-pass formulas.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, r := range raw {
			d := float64(r) - mean
			m2 += d * d
		}
		variance := m2 / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "curve"
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	sorted := s.Sorted()
	if sorted.Points[0].X != 1 || sorted.Points[2].X != 3 {
		t.Errorf("sorted = %v", sorted.Points)
	}
	// Original untouched.
	if s.Points[0].X != 3 {
		t.Error("Sorted mutated the receiver")
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Errorf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Error("YAt(99) found")
	}
}
