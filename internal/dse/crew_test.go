package dse

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/topology"
)

// TestSweepRowsIgnoreForkCrew: a point's forks are measured on a crew
// whose size depends on the helpers the process-wide budget has free,
// yet the canonical rows and the front are byte-identical on a crew of
// one (the test holds the whole budget), on whatever crew a free budget
// gives, on the cold path, and with three sweep workers sharing the
// budget — for the grid, the Pareto walk, and a grid with a rejected
// point (the minimal torus without datelines), whose error rows the
// cold path builds on the crew. Every sweep gives back every helper it
// took.
func TestSweepRowsIgnoreForkCrew(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	rejected := topology.Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4, "minimal": 1}}
	for _, base := range []struct {
		name      string
		mutate    func(*Config)
		errorRows int
	}{
		{"grid", func(*Config) {}, 0},
		{"pareto", func(c *Config) { c.Search = SearchPareto }, 0},
		{"rejected", func(c *Config) { c.Axes.Topos = append(c.Axes.Topos, rejected) }, 2 * 2 * 4},
	} {
		t.Run(base.name, func(t *testing.T) {
			var want []byte
			var wantFront []FrontPoint
			for _, v := range []struct {
				name    string
				hold    bool
				cold    bool
				workers int
			}{
				{"crew-of-one", true, false, 1},
				{"budget-free", false, false, 1},
				{"cold-crew-of-one", true, true, 1},
				{"cold", false, true, 1},
				{"workers-3", false, false, 3},
				{"cold-workers-3", false, true, 3},
			} {
				cfg := tinySweep()
				cfg.Forks = 4
				cfg.ColdBuild = v.cold
				cfg.Workers = v.workers
				base.mutate(&cfg)
				held := 0
				if v.hold {
					held = engine.TakeHelpers(procs)
				}
				res, err := Sweep(cfg)
				engine.ReturnHelpers(held)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if n := engine.TakeHelpers(procs); n != procs-1 {
					t.Errorf("%s: took %d helpers after the sweep, want the whole budget of %d", v.name, n, procs-1)
				} else {
					engine.ReturnHelpers(n)
				}
				var errRows int
				for _, r := range res.Rows {
					if r.Error != "" {
						errRows++
					}
				}
				if errRows != base.errorRows {
					t.Errorf("%s: %d error rows, want %d", v.name, errRows, base.errorRows)
				}
				got := marshalRows(t, res.Rows)
				if want == nil {
					want, wantFront = got, res.Front
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: canonical rows differ from the crew of one's", v.name)
				}
				if !slices.Equal(res.Front, wantFront) {
					t.Errorf("%s: front %v, want %v", v.name, keysOf(res.Front), keysOf(wantFront))
				}
			}
		})
	}
}
