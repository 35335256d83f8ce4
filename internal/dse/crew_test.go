package dse

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"nocemu/internal/engine"
	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// TestSweepRowsIgnoreForkCrew: a batch's points and a point's forks are
// run on crews whose size depends on the helpers the process-wide
// budget has free, yet the canonical rows and the front are
// byte-identical on a crew of one (the test holds the whole budget), with
// exactly one helper free (a point takes it, and the fork crews get none
// until the batch's tail), on whatever crews a free budget gives, on the
// cold path, and with three sweep workers sharing the budget — for the
// grid, the Pareto walk, and a grid with a rejected point (the minimal
// torus without datelines), whose error rows the cold path builds on
// the crew. Every sweep gives back every helper it took.
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
			const all = -1 // the test holds none of the budget
			for _, v := range []struct {
				name    string
				free    int // helpers the test leaves in the budget
				cold    bool
				workers int
			}{
				{"crew-of-one", 0, false, 1},
				{"one-free", 1, false, 1},
				{"budget-free", all, false, 1},
				{"cold-crew-of-one", 0, true, 1},
				{"cold", all, true, 1},
				{"workers-3", all, false, 3},
				{"cold-workers-3", all, true, 3},
			} {
				cfg := tinySweep()
				cfg.Forks = 4
				cfg.ColdBuild = v.cold
				cfg.Workers = v.workers
				base.mutate(&cfg)
				held := 0
				if v.free != all {
					held = engine.TakeHelpers(procs - 1 - v.free)
				}
				res, err := Sweep(cfg)
				engine.ReturnHelpers(held)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if err := budgetWhole(); err != nil {
					t.Errorf("%s: after the sweep, %v", v.name, err)
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

// budgetWhole reports an error unless the whole helper budget is free.
func budgetWhole() error {
	procs := runtime.GOMAXPROCS(0)
	n := engine.TakeHelpers(procs)
	engine.ReturnHelpers(n)
	if n != procs-1 {
		return fmt.Errorf("took %d helpers, want the whole budget of %d", n, procs-1)
	}
	return nil
}

// TestSweepJournalFailureReturns: a point whose rows cannot be
// journaled stops the batch, and the sweep returns the write's error —
// with one sweep worker or three, the budget held or free — within a
// bound instead of wedging the hand-out, every helper back in the
// budget.
func TestSweepJournalFailureReturns(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 3} {
		for _, hold := range []bool{true, false} {
			name := fmt.Sprintf("workers-%d-hold-%v", workers, hold)
			f, err := os.Create(filepath.Join(t.TempDir(), "sweep.journal"))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			cfg := tinySweep()
			cfg.Workers = workers
			cfg.applyDefaults()
			r := &runner{
				cfg:  &cfg,
				eval: &evaluator{cfg: &cfg, store: platform.NewSnapStore("")},
				jnl:  &journal{f: f, rows: map[string]Row{}},
			}
			held := 0
			if hold {
				held = engine.TakeHelpers(procs)
			}
			done := make(chan error, 1)
			go func() { done <- r.runGrid() }()
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s: the sweep was still running 20 s after its journal failed", name)
			}
			engine.ReturnHelpers(held)
			if !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s: sweep returned %v, want the journal's write error", name, err)
			}
			if err := budgetWhole(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestSweepLogOneLinePerPoint: points complete on several goroutines,
// yet Log — a plain bytes.Buffer, which make race checks — receives
// each progress line whole, one per point, the evaluated count rising
// by one from line to line. A few sweeps give the race detector more
// chances at writes that are not ordered.
func TestSweepLogOneLinePerPoint(t *testing.T) {
	for range 5 {
		var log bytes.Buffer
		cfg := tinySweep()
		cfg.Workers = 3
		cfg.Log = &log
		res, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
		if len(lines) != res.Evaluated || res.Evaluated != res.GridSize {
			t.Fatalf("%d progress lines for %d evaluated points of %d:\n%s", len(lines), res.Evaluated, res.GridSize, log.String())
		}
		seen := map[string]bool{}
		for i, line := range lines {
			var key string
			var n int
			if _, err := fmt.Sscanf(line, "dse: %s [%d evaluated]", &key, &n); err != nil || n != i+1 || seen[key] {
				t.Errorf("line %d %q: want a fresh point and [%d evaluated] (%v)", i, line, i+1, err)
			}
			seen[key] = true
		}
	}
}

// overlapLog checks the budget at the first progress line it receives.
type overlapLog struct {
	lines int
	short int // helpers missing from the budget at the first line
}

func (l *overlapLog) Write(b []byte) (int, error) {
	if l.lines++; l.lines == 1 {
		procs := runtime.GOMAXPROCS(0)
		n := engine.TakeHelpers(procs)
		engine.ReturnHelpers(n)
		l.short = procs - 1 - n
	}
	return len(b), nil
}

// TestSweepPointsOverlap: a one-worker sweep runs a batch's points on
// the helpers the budget has free as well. When the first point's
// progress line is written, at least two of the grid's eight points are
// still to be handed out, so the point helper still holds its slot —
// where the worker evaluated the points alone, its fork crew would have
// given every helper back by then.
func TestSweepPointsOverlap(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one processor: the budget has no helper")
	}
	if err := budgetWhole(); err != nil {
		t.Fatal(err)
	}
	log := &overlapLog{}
	cfg := tinySweep()
	cfg.Log = log
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if log.short < 1 {
		t.Errorf("the whole budget was free at the first progress line: no point ran beside the worker's")
	}
	if err := budgetWhole(); err != nil {
		t.Error(err)
	}
}
