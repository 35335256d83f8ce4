package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZeroSeedRemapped(t *testing.T) {
	l := New(0)
	if l.State() != 1 {
		t.Errorf("state = %d, want 1", l.State())
	}
	l.Reseed(0)
	if l.State() != 1 {
		t.Errorf("state after reseed = %d, want 1", l.State())
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(0xDEADBEEF), New(0xDEADBEEF)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(0xDEADBEEF)
	a.Reseed(0xDEADBEEF)
	for i := 0; i < 100; i++ {
		if a.Uint32() != c.Uint32() {
			t.Fatal("reseed did not restore the sequence")
		}
	}
}

func TestNeverZeroState(t *testing.T) {
	l := New(42)
	for i := 0; i < 100000; i++ {
		if l.Next() == 0 {
			t.Fatal("LFSR reached the all-zero lockup state")
		}
	}
}

func TestLongPeriodNoShortCycle(t *testing.T) {
	// A maximal 32-bit LFSR has period 2^32-1; verify no cycle shorter
	// than 1e6 from an arbitrary seed.
	l := New(12345)
	start := l.State()
	for i := 0; i < 1_000_000; i++ {
		if l.Next() == start {
			t.Fatalf("cycle of length %d", i+1)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	l := New(7)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := l.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
	// Past one 32-bit draw: a full 32-bit gap range spans 2^32 values.
	// Only reachable where int is wider than 32 bits.
	for _, w := range []uint64{1 << 32, 1<<32 + 65535} {
		if w > math.MaxInt {
			continue
		}
		n := int(w)
		for i := 0; i < 200; i++ {
			v := l.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	l := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	l.Intn(0)
}

func TestIntRange(t *testing.T) {
	l := New(9)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		v := l.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
	if l.IntRange(5, 5) != 5 {
		t.Error("degenerate range wrong")
	}
}

func TestIntRangePanics(t *testing.T) {
	l := New(1)
	defer func() {
		if recover() == nil {
			t.Error("IntRange(2,1) did not panic")
		}
	}()
	l.IntRange(2, 1)
}

func TestIntnUniformity(t *testing.T) {
	l := New(31337)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[l.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	l := New(5)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := l.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	l := New(11)
	for i := 0; i < 100; i++ {
		if l.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !l.Bernoulli(1) {
			t.Fatal("Bernoulli(1) missed")
		}
		if l.Bernoulli(-0.5) || !l.Bernoulli(1.5) {
			t.Fatal("clamping broken")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	l := New(99)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if l.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("rate = %v, want ~0.3", rate)
	}
}

func TestGeometricMean(t *testing.T) {
	l := New(123)
	const p, n = 0.25, 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(l.Geometric(p))
	}
	want := (1 - p) / p // = 3
	if mean := sum / n; math.Abs(mean-want) > 0.1 {
		t.Errorf("mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricPanics(t *testing.T) {
	l := New(1)
	for _, p := range []float64{0, -1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			l.Geometric(p)
		}()
	}
}

func TestBernoulli16Rate(t *testing.T) {
	l := New(77)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if l.Bernoulli16(16384) { // 0.25 in Q16
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.25) > 0.01 {
		t.Errorf("rate = %v, want ~0.25", rate)
	}
	for i := 0; i < 100; i++ {
		if l.Bernoulli16(0) {
			t.Fatal("Bernoulli16(0) fired")
		}
	}
}

// Property: Intn is always in range and deterministic per seed.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint32, nSeed uint8) bool {
		n := int(nSeed%100) + 1
		a, b := New(seed), New(seed)
		for i := 0; i < 32; i++ {
			va, vb := a.Intn(n), b.Intn(n)
			if va != vb || va < 0 || va >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
