package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// The benchmark works from the repository root, like the driver's
// checkout: .bench_build/ and bench/out/ land where .gitignore expects.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{40, 30, 75},       // ten of forty lie beyond the 30th
		{2000, 1990, 99.5}, // ten of two thousand beyond the 1990th
		{500, 490, 98},
		{24, 14, 100 * 14.0 / 24},
		{22, 12, 100 * 12.0 / 22},
		{21, 11, 50}, // too few for a percentile above the median
		{9, 5, 50},
	} {
		v, pct := tail(seq(c.n))
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", c.n, v, pct, c.value, c.pct)
		}
		if beyond := float64(c.n) - v; pct > 50 && beyond < tailMin {
			t.Errorf("tail of 1..%d leaves %v samples beyond, want at least %d", c.n, beyond, tailMin)
		}
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestSelfTime(t *testing.T) {
	// op [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 2},
		{Name: "a", Start: 100, End: 105, Parent: -1},
	}
	want := map[string]time.Duration{"op": 30, "a": 35, "b": 30, "c": 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(true)
	r.do("outer", 7, func() {
		r.do("inner", 7, func() {})
		r.enable(false)
		r.do("unrecorded", 7, func() {})
		r.enable(true)
	})
	if len(r.spans) != 2 || r.spans[0].Parent != -1 || r.spans[1].Parent != 0 || r.spans[1].Op != 7 {
		t.Fatalf("spans %+v", r.spans)
	}
	if in, out := r.spans[1], r.spans[0]; in.Start < out.Start || in.End > out.End {
		t.Errorf("inner %+v not inside outer %+v", in, out)
	}
	plain := newRecorder(false)
	plain.enable(true)
	if d := plain.do("x", 0, func() { time.Sleep(time.Millisecond) }); len(plain.spans) != 0 || d <= 0 {
		t.Errorf("untraced recorder kept %d spans, timed %v", len(plain.spans), d)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclaredNames(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || m == metric{"setup_s", "s", "lower", m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}

// BENCHMARK.json is what `go run ./bench -manifest` prints.
func TestManifestMatchesFile(t *testing.T) {
	var file, decl any
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	d, _ := json.Marshal(declared())
	json.Unmarshal(d, &decl)
	if !reflect.DeepEqual(file, decl) {
		t.Error("BENCHMARK.json differs from the tables in bench/: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}

// The drift gate: at smoke sizes every workload must run clean, both
// ways, and emit exactly the declared names.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := measure(w.Name, 3, refSeconds, trace, true, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed", w.Name, trace, res.Failed, res.Attempted)
			}
			decl := endToEnd
			if trace {
				decl = perLayer
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(decl))
			}
			for _, m := range decl {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v (present %v)", w.Name, trace, m.Name, got, ok)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
