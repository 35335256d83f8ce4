package platform

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nocemu/internal/topology"
)

// TestSnapStore checks the store's contract on its own: entries
// outlive the instance through the directory, a delete removes both
// copies, and a directory that cannot be written is an error from Put
// while the entry still serves from memory.
func TestSnapStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := NewSnapStore(dir)
	if _, ok := s.Get("a|b c"); ok {
		t.Fatal("empty store has an entry")
	}
	if err := s.Put("a|b c", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("put left temporaries behind: %v", left)
	}
	again := NewSnapStore(dir)
	if b, ok := again.Get("a|b c"); !ok || string(b) != "one" {
		t.Fatalf("second instance reads %q, %v", b, ok)
	}
	again.Delete("a|b c")
	again.Delete("never stored")
	if _, ok := NewSnapStore(dir).Get("a|b c"); ok {
		t.Fatal("deleted entry still on disk")
	}

	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := NewSnapStore(file)
	if err := bad.Put("k", []byte("two")); err == nil {
		t.Fatal("put under a plain file succeeded")
	}
	if b, ok := bad.Get("k"); !ok || string(b) != "two" {
		t.Fatal("failed put does not serve from memory")
	}
}

// TestWarmRestoresOrWarms drives the one restore-or-warm step through
// its three outcomes — miss, hit, and a stored snapshot that fails to
// restore — and requires the same state from each.
func TestWarmRestoresOrWarms(t *testing.T) {
	build := func(w int) func() (*Platform, error) {
		return func() (*Platform, error) {
			cfg, err := NetConfig(NetOptions{
				Topo:      topology.Spec{Kind: "mesh", Param: map[string]int{"w": w, "h": 2}},
				Injection: 0.2,
			})
			if err != nil {
				return nil, err
			}
			cfg.Name = "warm" // same name, so only the shape tells 2x2 from 3x2
			return Build(cfg)
		}
	}
	s := NewSnapStore("")
	// Continuations are compared by what they measure: snapshot bytes
	// are canonical per kernel history, not across a restore (§13).
	state := func(key string, w int) Totals {
		t.Helper()
		p, err := s.Warm(key, 300, build(w))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.RunCycles(200)
		return p.Totals()
	}
	cold := state("k", 2)
	if cold.Cycles != 500 || cold.PacketsReceived == 0 || s.Hits() != 0 {
		t.Fatalf("first warm-up: %+v, %d hits", cold, s.Hits())
	}
	if got := state("k", 2); got != cold || s.Hits() != 1 {
		t.Fatalf("restored start differs from the warmed one (hits %d): %+v vs %+v", s.Hits(), got, cold)
	}
	// The 3x2 snapshot stored under "other" cannot restore into 2x2.
	state("other", 3)
	foreign, _ := s.Get("other")
	if err := s.Put("k", foreign); err != nil {
		t.Fatal(err)
	}
	if got := state("k", 2); got != cold || s.Hits() != 1 {
		t.Fatalf("fallback after a failed restore differs from the warmed start (hits %d): %+v vs %+v", s.Hits(), got, cold)
	}
	if now, _ := s.Get("k"); bytes.Equal(now, foreign) {
		t.Fatal("the entry that failed to restore was not replaced")
	}
}
