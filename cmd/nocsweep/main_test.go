package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/dse"
)

// TestRunSmoke drives the CLI entry through a tiny grid with journal,
// cache, and Pareto output, then resumes it and checks the results
// files are byte-identical.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	pareto := filepath.Join(dir, "pareto.jsonl")
	journal := filepath.Join(dir, "sweep.journal")
	cache := filepath.Join(dir, "snapcache")

	err := run("", "mesh:w=2,h=2", "uniform", "2,4", "0.1,0.2",
		2, 200, 300, 1, 1, "grid", "", journal, cache, out, pareto, true)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dse.ReadRows(strings.NewReader(string(first)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*2 { // grid 1x1x2x2 × 2 forks
		t.Fatalf("results hold %d rows, want 8", len(rows))
	}
	front, err := os.ReadFile(pareto)
	if err != nil || len(front) == 0 {
		t.Fatalf("pareto front missing or empty (%v)", err)
	}

	// Resume against the populated journal: identical results bytes.
	err = run("", "mesh:w=2,h=2", "uniform", "2,4", "0.1,0.2",
		2, 200, 300, 1, 1, "grid", "", journal, cache, out, pareto, true)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("resumed CLI run produced different results bytes")
	}
}

// TestRunConfigFile checks a config file drives the sweep and flags
// override its scalars.
func TestRunConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "sweep.json")
	cfgText := `{
		"topologies": ["mesh:w=2,h=2"],
		"buf_depths": [2],
		"injections": [0.1],
		"warmup_cycles": 200,
		"measure_cycles": 300,
		"journal": "sweep.journal"
	}`
	if err := os.WriteFile(cfgPath, []byte(cfgText), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "results.jsonl")
	// -forks 2 overrides the file's implicit 1.
	err := run(cfgPath, "", "", "", "", 2, 0, 0, 0, 0, "", "", "", "", out, "", true)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dse.ReadRows(strings.NewReader(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("results hold %d rows, want 2 (1 point × 2 forks)", len(rows))
	}
	// The journal path from the file anchors at the config dir.
	if _, err := os.Stat(filepath.Join(dir, "sweep.journal")); err != nil {
		t.Fatalf("journal not anchored at config dir: %v", err)
	}
}

// TestRunBadFlags checks flag errors surface instead of panicking.
func TestRunBadFlags(t *testing.T) {
	if err := run("", "mesh:w=", "", "", "", 0, 0, 0, 0, 0, "", "", "", "", "", "", true); err == nil {
		t.Error("bad topology spec accepted")
	}
	if err := run("", "mesh:w=2,h=2", "", "two", "", 0, 0, 0, 0, 0, "", "", "", "", "", "", true); err == nil {
		t.Error("bad depth accepted")
	}
	if err := run("", "mesh:w=2,h=2", "", "", "fast", 0, 0, 0, 0, 0, "", "", "", "", "", "", true); err == nil {
		t.Error("bad injection accepted")
	}
	if err := run("", "", "", "", "", 0, 0, 0, 0, 0, "", "", "", "", "", "", true); err == nil {
		t.Error("empty sweep accepted")
	}
}
