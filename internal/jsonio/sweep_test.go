package jsonio

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/dse"
	"nocemu/internal/fault"
	"nocemu/internal/link"
)

func TestLoadSweep(t *testing.T) {
	src := `{
		"name": "demo",
		"topologies": ["mesh:w=3,h=3", "torus:w=4,h=4"],
		"workloads": ["uniform", "hotspot"],
		"buf_depths": [2, 4],
		"injections": [0.05, 0.2],
		"faults": [
			{"name": "none"},
			{"name": "link3-stuck", "specs": [{"link": 3, "mode": "stuck", "from": 100, "until": 400}]}
		],
		"forks": 3,
		"warmup_cycles": 500,
		"measure_cycles": 700,
		"seed": 7,
		"workers": 2,
		"search": "pareto",
		"objectives": ["latency", "area"],
		"journal": "sweep.journal",
		"cache_dir": "snapcache"
	}`
	cfg, err := LoadSweep(strings.NewReader(src), "/base")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Axes.Topos) != 2 || cfg.Axes.Topos[0].String() != "mesh:h=3,w=3" {
		t.Fatalf("topos = %v", cfg.Axes.Topos)
	}
	if len(cfg.Axes.Workloads) != 2 || len(cfg.Axes.BufDepths) != 2 || len(cfg.Axes.Injections) != 2 {
		t.Fatalf("axes = %+v", cfg.Axes)
	}
	if len(cfg.Axes.Faults) != 2 {
		t.Fatalf("faults = %+v", cfg.Axes.Faults)
	}
	want := fault.Spec{Link: 3, Mode: link.FaultStuck, From: 100, Until: 400}
	if got := cfg.Axes.Faults[1].Specs[0]; got != want {
		t.Fatalf("fault spec = %+v, want %+v", got, want)
	}
	if cfg.Forks != 3 || cfg.WarmupCycles != 500 || cfg.MeasureCycles != 700 ||
		cfg.Seed != 7 || cfg.Workers != 2 {
		t.Fatalf("scalars = %+v", cfg)
	}
	if cfg.Search != dse.SearchPareto {
		t.Fatalf("search = %q", cfg.Search)
	}
	if len(cfg.Objectives) != 2 {
		t.Fatalf("objectives = %v", cfg.Objectives)
	}
	if cfg.Journal != filepath.Join("/base", "sweep.journal") {
		t.Fatalf("journal = %q (relative paths anchor at the config dir)", cfg.Journal)
	}
	if cfg.CacheDir != filepath.Join("/base", "snapcache") {
		t.Fatalf("cache dir = %q", cfg.CacheDir)
	}
}

func TestLoadSweepRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"topologies": ["mesh"], "bogus": 1}`,
		"no topologies": `{"workloads": ["uniform"]}`,
		"bad spec":      `{"topologies": ["mesh:w"]}`,
		"bad fault":     `{"topologies": ["mesh"], "faults": [{"name": "x", "specs": [{"link": 0, "mode": "slow"}]}]}`,
	}
	for name, src := range cases {
		if _, err := LoadSweep(strings.NewReader(src), ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// sweepExample is a sample sweep configuration.
func sweepExample() *SweepFile {
	return &SweepFile{
		Name:       "mesh-depth-load",
		Topologies: []string{"mesh:w=4,h=4", "mesh:w=8,h=8"},
		Workloads:  []string{"uniform", "hotspot"},
		BufDepths:  []int{2, 4, 8},
		Injections: []float64{0.05, 0.1, 0.2},
		Forks:      4,
		Search:     "pareto",
		Journal:    "sweep.journal",
		CacheDir:   "snapcache",
	}
}

// TestSweepExampleLoads pins the sample sweep to the live schema:
// it must marshal, re-load under strict decoding, and lower cleanly.
func TestSweepExampleLoads(t *testing.T) {
	ex := sweepExample()
	text, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadSweep(strings.NewReader(string(text)), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Axes.Topos) != 2 || len(cfg.Axes.Workloads) != 2 ||
		len(cfg.Axes.BufDepths) != 3 || len(cfg.Axes.Injections) != 3 {
		t.Fatalf("example axes = %+v", cfg.Axes)
	}
	if cfg.Search != dse.SearchPareto {
		t.Fatalf("example search %q", cfg.Search)
	}
}
