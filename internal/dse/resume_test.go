package dse

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// TestSweepResume checks the resumability acceptance criterion: a
// sweep killed mid-grid (sweep's stopAfter) resumes from its journal and
// snapshot cache, and the merged canonical JSONL is byte-identical to
// an uninterrupted run's.
func TestSweepResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	cache := filepath.Join(dir, "snapcache")

	// The uninterrupted reference (no journal, no cache).
	ref, err := Sweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRows(t, ref.Rows)

	// First run: killed after 3 of 8 structural points.
	first := tinySweep()
	first.Journal = journal
	first.CacheDir = cache
	fRes, err := sweep(first, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !fRes.stopped || fRes.Evaluated != 3 {
		t.Fatalf("first run: stopped=%v evaluated=%d, want stopped after 3", fRes.stopped, fRes.Evaluated)
	}
	jrows, err := LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(jrows) != 3*2 { // forks
		t.Fatalf("journal holds %d rows after the kill, want 6", len(jrows))
	}
	snaps, err := filepath.Glob(filepath.Join(cache, "*.nocsnap"))
	if err != nil || len(snaps) != 3 {
		t.Fatalf("snapshot cache holds %d entries (%v), want 3", len(snaps), err)
	}

	// Resume: same configuration, same journal and cache.
	second := tinySweep()
	second.Journal = journal
	second.CacheDir = cache
	sRes, err := Sweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.stopped {
		t.Fatal("resumed run reports stopped")
	}
	if sRes.Resumed != 3 || sRes.Evaluated != 5 {
		t.Fatalf("resumed run: resumed=%d evaluated=%d, want 3/5", sRes.Resumed, sRes.Evaluated)
	}
	got := marshalRows(t, sRes.Rows)
	if !bytes.Equal(got, want) {
		t.Fatal("merged resumed JSONL differs from the uninterrupted run")
	}

	// A third run is a full no-op served entirely from the journal.
	third := tinySweep()
	third.Journal = journal
	third.CacheDir = cache
	tRes, err := Sweep(third)
	if err != nil {
		t.Fatal(err)
	}
	if tRes.Evaluated != 0 || tRes.Resumed != 8 {
		t.Fatalf("third run: evaluated=%d resumed=%d, want 0/8", tRes.Evaluated, tRes.Resumed)
	}
	if !bytes.Equal(marshalRows(t, tRes.Rows), want) {
		t.Fatal("journal-only rerun differs from the uninterrupted run")
	}

	// A journal belongs to one sweep configuration: rows are adopted by
	// key, so a sweep that disagrees with a recorded field must fail
	// rather than emit the other configuration's rows.
	fourth := tinySweep()
	fourth.Journal = journal
	fourth.MeasureCycles = 500
	if _, err := Sweep(fourth); err == nil ||
		!strings.Contains(err.Error(), "measure_cycles=400") || !strings.Contains(err.Error(), "500") {
		t.Fatalf("sweep over a journal of another measure length: err = %v, want both values named", err)
	}
}

// TestSweepResumesTornJournalTail: a sweep killed while writing a row
// leaves that row without its newline. Resuming cuts the torn tail off,
// evaluates its point again, and the merged output is byte-identical
// to an uninterrupted sweep's, wherever the row was cut. A malformed
// row that did get its newline is corruption, not a torn write, and
// stays an error naming the row.
func TestSweepResumesTornJournalTail(t *testing.T) {
	ref, err := Sweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRows(t, ref.Rows)

	journal := filepath.Join(t.TempDir(), "sweep.journal")
	first := tinySweep()
	first.Journal = journal
	if _, err := sweep(first, 3); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1 // the last row's first byte
	rowLen := len(full) - last                                // newline included
	for _, cut := range []int{1, rowLen / 2, rowLen - 1} {
		if err := os.WriteFile(journal, full[:last+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		resume := tinySweep()
		resume.Journal = journal
		res, err := Sweep(resume)
		if err != nil {
			t.Fatalf("cut %d of %d bytes into the last row: %v", cut, rowLen, err)
		}
		if res.Resumed != 2 || res.Evaluated != 6 {
			t.Errorf("cut %d: resumed=%d evaluated=%d, want 2/6 (the torn row's point evaluated again)", cut, res.Resumed, res.Evaluated)
		}
		if !bytes.Equal(marshalRows(t, res.Rows), want) {
			t.Errorf("cut %d: merged JSONL differs from the uninterrupted run", cut)
		}
		rows, err := LoadJournal(journal)
		if err != nil || len(rows) != 16 {
			t.Errorf("cut %d: journal after the resume holds %d rows (%v), want 16", cut, len(rows), err)
		}
	}

	if err := os.WriteFile(journal, append(full[:last:last], "{\"key\":\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	resume := tinySweep()
	resume.Journal = journal
	if _, err := Sweep(resume); err == nil || !strings.HasPrefix(err.Error(), "dse: row 6: ") {
		t.Errorf("newline-terminated malformed row: err = %v, want one naming row 6", err)
	}
}

// TestSnapshotCacheResume checks the cache actually short-circuits the
// warm-up: a second sweep over the same space with a shared cache but a
// fresh journal re-evaluates every point from cached snapshots and
// still produces identical rows.
func TestSnapshotCacheResume(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "snapcache")

	first := tinySweep()
	first.CacheDir = cache
	fRes, err := Sweep(first)
	if err != nil {
		t.Fatal(err)
	}
	if fRes.CacheHits != 0 {
		t.Fatalf("fresh sweep hit the cache %d times", fRes.CacheHits)
	}

	second := tinySweep()
	second.CacheDir = cache
	sRes, err := Sweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.CacheHits != 8 {
		t.Fatalf("cached sweep hit the cache %d times, want 8", sRes.CacheHits)
	}
	if !bytes.Equal(marshalRows(t, fRes.Rows), marshalRows(t, sRes.Rows)) {
		t.Fatal("cache-served sweep rows differ from the warmed sweep")
	}
}

// TestSnapshotCacheCorruptEntry checks a torn or foreign cache file
// cannot poison a sweep: the evaluator falls back to a fresh warm-up.
func TestSnapshotCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "snapcache")

	first := tinySweep()
	first.CacheDir = cache
	fRes, err := Sweep(first)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(cache, "*.nocsnap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no cache entries (%v)", err)
	}
	for _, s := range snaps {
		if err := os.WriteFile(s, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	second := tinySweep()
	second.CacheDir = cache
	sRes, err := Sweep(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalRows(t, fRes.Rows), marshalRows(t, sRes.Rows)) {
		t.Fatal("sweep rows changed after cache corruption")
	}
}

// TestSnapshotCacheKeyedByState pins the cache key against the stale
// hit: two sweeps share one cache directory and differ in exactly one
// input the warmed state depends on but the row label (StructKey) does
// not name. The second sweep must miss on every point and produce the
// rows of a cache-less sweep of its own configuration.
func TestSnapshotCacheKeyedByState(t *testing.T) {
	base := func() Config {
		return Config{
			Axes: Axes{
				Topos:      []topology.Spec{{Kind: "mesh", Param: map[string]int{"w": 3, "h": 3}}},
				Injections: []float64{0.2},
				Faults: []FaultCampaign{{Name: "f", Specs: []fault.Spec{
					{Link: 0, Mode: link.FaultStuck, From: 100, Until: 200},
				}}},
			},
			Forks:         2,
			WarmupCycles:  300,
			MeasureCycles: 300,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Seed", func(c *Config) { c.Seed = 2 }},
		{"WorkloadSeed", func(c *Config) { c.WorkloadSeed = 2 }},
		{"PacketLen", func(c *Config) { c.PacketLen = 6 }},
		{"WarmupCycles", func(c *Config) { c.WarmupCycles = 500 }},
		{"FaultSpecs", func(c *Config) { c.Axes.Faults[0].Specs[0].Until = 290 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := t.TempDir()
			first := base()
			first.CacheDir = cache
			if _, err := Sweep(first); err != nil {
				t.Fatal(err)
			}
			second := base()
			tc.mutate(&second)
			fresh, err := Sweep(second)
			if err != nil {
				t.Fatal(err)
			}
			second.CacheDir = cache
			cached, err := Sweep(second)
			if err != nil {
				t.Fatal(err)
			}
			if cached.CacheHits != 0 {
				t.Errorf("sweep differing in %s hit the other sweep's snapshots %d times", tc.name, cached.CacheHits)
			}
			if !bytes.Equal(marshalRows(t, cached.Rows), marshalRows(t, fresh.Rows)) {
				t.Errorf("sweep differing in %s: rows with a shared cache differ from a cache-less sweep", tc.name)
			}
		})
	}
}

// perturb changes a settable value to a different one of its type.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Struct:
		perturb(t, v.Field(0))
	case reflect.Interface:
		v.Set(reflect.ValueOf(io.Discard))
	default:
		t.Fatalf("perturb: unhandled kind %s", v.Kind())
	}
}

// TestCacheKeyCompleteness keeps the cache key from rotting: every
// field of platform.NetOptions and every non-axis field of Config must
// move the key, unless it is listed here as state-neutral. A field
// added later fails this test until someone classifies it.
func TestCacheKeyCompleteness(t *testing.T) {
	neutral := map[string]bool{
		// the kernel: snapshots restore into any
		"Workers": true, "NoGate": true,
		// applied after the warmed state is reached
		"Forks": true, "MeasureCycles": true,
		// what is visited and reported, not what a point's state is
		"Search": true, "Objectives": true, "Log": true, "Name": true,
		// where results and snapshots go; ColdBuild bypasses the store
		"Journal": true, "CacheDir": true, "ColdBuild": true,
	}
	check := func(typ reflect.Type, key func(mutate func(reflect.Value)) string) {
		want := key(func(reflect.Value) {})
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if name == "Axes" {
				continue // the axes are the point; TestSnapshotCacheKeyedByState covers specs
			}
			got := key(func(v reflect.Value) { perturb(t, v.Field(i)) })
			if moved := got != want; moved == neutral[name] {
				t.Errorf("%s.%s: key moved = %v, state-neutral = %v", typ.Name(), name, moved, neutral[name])
			}
		}
	}
	check(reflect.TypeOf(platform.NetOptions{}), func(mutate func(reflect.Value)) string {
		var o platform.NetOptions
		mutate(reflect.ValueOf(&o).Elem())
		return o.Key()
	})
	check(reflect.TypeOf(Config{}), func(mutate func(reflect.Value)) string {
		c := tinySweep()
		c.applyDefaults()
		mutate(reflect.ValueOf(&c).Elem())
		return c.stateKey(Point{})
	})
}
