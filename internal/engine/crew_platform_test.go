package engine_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/topology"
)

// The gated crew on whole platforms. CrewAlways makes a platform of any
// size walk its gated cycles on a crew — a worker per switch, as many as
// the host has processors — so the fixtures the platform package pins
// for the default walk (its golden traces and the cycle-600 snapshot),
// its gating matrices against the plain walk and its FullReset must all
// hold under it. On one processor the same runs walk on a crew of one.
// Under each, the same runs go on crews of 2, 4, 7 and 16 workers forced
// on any host (CrewOf): past the paper platform's six switches, and more
// workers than processors — the crews the platform package cannot force.

// walk is how a platform test runs a gated platform: on CrewAlways's
// crew (crew 0), or on a crew of crew workers forced on any host,
// standing down after every probe window when down is set.
type walk struct {
	name string
	crew int
	down bool
}

// crewWalks are the walks every platform-level crew test runs.
var crewWalks = []walk{{"always", 0, false}, {"crew=2", 2, false}, {"crew=4", 4, false}, {"crew=7", 7, false}, {"crew=16", 16, false}}

// prepare applies w to a gated platform's engine.
func (w walk) prepare(p *platform.Platform) {
	e := p.Engine()
	if w.crew == 0 {
		engine.CrewAlways(e)
		return
	}
	engine.CrewOf(e, w.crew)
	if w.down {
		engine.StandDownAlways(e)
	}
}

// check asserts that w walked on a crew where it should: a forced crew
// always, CrewAlways's where the host has a second processor.
func (w walk) check(t *testing.T, p *platform.Platform) {
	t.Helper()
	if w.crew == 0 {
		onCrew(t, p)
	} else if p.Engine().PooledCycles() == 0 {
		t.Errorf("%s walked no cycle on its crew", w.name)
	}
}

// fixture reads a file the platform package's tests pin.
func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "platform", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// build builds cfg, walked by w unless w is nil — the plain walk — and
// applies setup.
func build(t *testing.T, cfg platform.Config, w *walk, setup func(p *platform.Platform)) *platform.Platform {
	t.Helper()
	cfg.NoGate = w == nil
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(p)
	}
	if w != nil {
		w.prepare(p)
	}
	return p
}

// onCrew asserts that the gated crew walked where the host has a second
// processor, and only there.
func onCrew(t *testing.T, p *platform.Platform) {
	t.Helper()
	if pooled := p.Engine().PooledCycles() > 0; pooled != (runtime.GOMAXPROCS(0) > 1) {
		t.Errorf("walked on a crew: %v, at GOMAXPROCS %d", pooled, runtime.GOMAXPROCS(0))
	}
}

// faults adds a campaign after Build.
func faults(specs ...fault.Spec) func(p *platform.Platform) {
	return func(p *platform.Platform) {
		if _, err := p.AddFaults(specs); err != nil {
			panic(err)
		}
	}
}

func paper(t *testing.T, opts platform.PaperOptions) platform.Config {
	t.Helper()
	cfg, err := platform.PaperConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func net(t *testing.T, spec string, opts platform.NetOptions) platform.Config {
	t.Helper()
	var err error
	if opts.Topo, err = topology.ParseSpec(spec); err != nil {
		t.Fatal(err)
	}
	cfg, err := platform.NetConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func trace(t *testing.T, p *platform.Platform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Probe().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGatedCrewGoldenTraces: the gated crew reproduces every golden
// trace byte for byte — the paper platform's under uniform, trace-driven
// and faulted traffic, and the flattened butterfly's. A run that traces
// the scheduler itself walks on a crew of one, whose parks and wakes its
// trace records beside the same flit events: of components, never of
// the switch arena, whose slot no crew lists.
func TestGatedCrewGoldenTraces(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		cfg        platform.Config
		setup      func(p *platform.Platform)
		cycles     uint64 // 0: run until the receptors are done
	}{
		{"uniform", "trace_uniform.jsonl", paper(t, platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 5}), nil, 0},
		{"trace-driven", "trace_trace_driven.jsonl", paper(t, platform.PaperOptions{Traffic: platform.PaperTrace, PacketsPerTG: 4, PacketsPerBurst: 4}), nil, 0},
		{"faulted", "trace_faulted.jsonl", paper(t, platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 6}), faults(
			fault.Spec{Link: 0, Mode: link.FaultStuck, From: 20, Until: 60},
			fault.Spec{Link: 1, Mode: link.FaultCorrupt, From: 15, Until: 100},
			fault.Spec{Link: 14, Mode: link.FaultCorrupt, From: 30, Until: 90},
			fault.Spec{Link: 6, Mode: link.FaultCorrupt, From: 40, Until: 120},
			fault.Spec{Link: 6, Mode: link.FaultStuck, From: 70, Until: 85},
		), 0},
		{"butterfly", "trace_butterfly.jsonl", net(t, "butterfly:w=3,h=3", platform.NetOptions{Workload: "uniform", Injection: 0.2, PacketsPerTG: 4, Seed: 7}), nil, 4_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Trace = &probe.Config{}
			for _, w := range crewWalks {
				t.Run(w.name, func(t *testing.T) {
					p := build(t, tc.cfg, &w, tc.setup)
					if tc.cycles > 0 {
						p.RunCycles(tc.cycles)
					} else if _, stopped := p.Run(1_000_000); !stopped {
						t.Fatal("run did not complete")
					}
					if got, want := trace(t, p), fixture(t, tc.file); !bytes.Equal(got, want) {
						t.Errorf("the gated crew's trace differs from %s", tc.file)
					}
					w.check(t, p)
				})
			}
		})
	}
	t.Run("sched", func(t *testing.T) {
		cfg := paper(t, platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 5})
		cfg.Trace = &probe.Config{Sched: true}
		p := build(t, cfg, &walk{name: "crew=4", crew: 4}, nil)
		if _, stopped := p.Run(1_000_000); !stopped {
			t.Fatal("run did not complete")
		}
		if n := p.Engine().PooledCycles(); n != 0 {
			t.Errorf("a scheduler-traced run walked %d cycles on a crew", n)
		}
		var data []byte
		parks := 0
		for _, line := range bytes.SplitAfter(trace(t, p), []byte("\n")) {
			if !bytes.Contains(line, []byte(`"ring":4294967295`)) {
				data = append(data, line...)
			} else if bytes.Contains(line, []byte(`"comp":"switches"`)) {
				t.Errorf("a scheduler event names the switch arena: %s", line)
			} else if bytes.Contains(line, []byte(`"kind":"park"`)) {
				parks++
			}
		}
		if parks == 0 {
			t.Error("the scheduler-traced run recorded no park")
		}
		if !bytes.Equal(data, fixture(t, "trace_uniform.jsonl")) {
			t.Error("the scheduler-traced run's flit events differ from trace_uniform.jsonl")
		}
	})
}

// TestGatedCrewSnapshotFixture: the paper platform, walked on the gated
// crew to cycle 600, snapshots to the committed fixture byte for byte.
func TestGatedCrewSnapshotFixture(t *testing.T) {
	cfg := paper(t, platform.PaperOptions{PacketsPerTG: 5})
	cfg.Trace = &probe.Config{}
	for _, w := range crewWalks {
		t.Run(w.name, func(t *testing.T) {
			p := build(t, cfg, &w, nil)
			p.RunCycles(600)
			snap, err := p.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, fixture(t, "paper_cycle600.nocsnap")) {
				t.Error("the gated crew's snapshot at cycle 600 differs from paper_cycle600.nocsnap")
			}
			w.check(t, p)
		})
	}
}

// outcome is what a run shows: the monitor's JSON, the trace, where it
// ended and why.
type outcome struct {
	json, trace     []byte
	cycle, executed uint64
	stopped         bool
	watchdog        string
	flitsRouted     uint64
}

func runOutcome(t *testing.T, p *platform.Platform, max uint64) outcome {
	t.Helper()
	var o outcome
	o.executed, o.stopped = p.Run(max)
	var buf bytes.Buffer
	if err := monitor.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	o.json, o.cycle = buf.Bytes(), p.Engine().Cycle()
	if p.Probe() != nil {
		o.trace = trace(t, p)
	}
	o.flitsRouted = p.Totals().FlitsRouted
	return o
}

func (o outcome) differ(want outcome) string {
	switch {
	case o.cycle != want.cycle || o.executed != want.executed || o.stopped != want.stopped || o.watchdog != want.watchdog:
		return fmt.Sprintf("run (%d, %v) to cycle %d, watchdog %q; plain (%d, %v) to %d, %q",
			o.executed, o.stopped, o.cycle, o.watchdog, want.executed, want.stopped, want.cycle, want.watchdog)
	case !bytes.Equal(o.json, want.json):
		return "monitor JSON differs"
	case !bytes.Equal(o.trace, want.trace):
		return "trace differs"
	}
	return ""
}

// TestGatedCrewGatingMatrix holds the gated crews to the plain walk on
// the platform gating matrices' runs: the paper platform under bounded
// uniform, free-running burst and trace-driven traffic, warmed by a
// RunCycles before the run, with a fault campaign and deadlocked by a
// stuck link under a watchdog, and meshes, a butterfly and a two-lane
// torus at arena scale.
func TestGatedCrewGatingMatrix(t *testing.T) {
	var wd *platform.Watchdog
	watchdog := func(p *platform.Platform) {
		faults(fault.Spec{Link: 0, Mode: link.FaultStuck, From: 200, Until: 1 << 40})(p)
		var err error
		if wd, err = p.AttachWatchdog(800); err != nil {
			panic(err)
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   platform.Config
		setup func(p *platform.Platform)
		warm  uint64 // RunCycles before the run
		max   uint64
	}{
		{"paper/uniform", paper(t, platform.PaperOptions{PacketsPerTG: 40}), nil, 0, 200_000},
		{"paper/burst", paper(t, platform.PaperOptions{Traffic: platform.PaperBurst}), nil, 0, 25_000},
		{"paper/trace", paper(t, platform.PaperOptions{Traffic: platform.PaperTrace, PacketsPerTG: 40}), nil, 0, 200_000},
		{"paper/warmed", paper(t, platform.PaperOptions{PacketsPerTG: 30}), nil, 500, 100_000},
		{"paper/faulted", paper(t, platform.PaperOptions{PacketsPerTG: 30}), faults(
			fault.Spec{Link: 0, Mode: link.FaultStuck, From: 500, Until: 2_500},
			fault.Spec{Link: 1, Mode: link.FaultCorrupt, From: 100, Until: 400},
		), 0, 100_000},
		{"paper/deadlock", paper(t, platform.PaperOptions{PacketsPerTG: 50}), watchdog, 0, 50_000},
		{"mesh8x8-light", net(t, "mesh:w=8,h=8", platform.NetOptions{Injection: 0.02}), nil, 0, 3_000},
		{"mesh8x8-saturated", net(t, "mesh:w=8,h=8", platform.NetOptions{Injection: 0.3}), nil, 0, 1_000},
		{"butterfly4x4", net(t, "butterfly:w=4,h=4", platform.NetOptions{Injection: 0.1}), nil, 0, 2_000},
		{"torus4x4-dateline", net(t, "torus:w=4,h=4,minimal=1,vcs=2", platform.NetOptions{Injection: 0.2}), nil, 0, 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(w *walk) outcome {
				wd = nil
				p := build(t, tc.cfg, w, tc.setup)
				p.RunCycles(tc.warm)
				o := runOutcome(t, p, tc.max)
				if wd != nil {
					stalled, at := wd.Stalled()
					o.watchdog = fmt.Sprintf("%v@%d", stalled, at)
				}
				if w != nil {
					w.check(t, p)
				}
				return o
			}
			want := run(nil)
			if want.flitsRouted == 0 {
				t.Fatal("no traffic crossed the platform")
			}
			for _, w := range crewWalks {
				t.Run(w.name, func(t *testing.T) {
					if d := run(&w).differ(want); d != "" {
						t.Errorf("the gated crew differs from the plain walk: %s", d)
					}
				})
			}
		})
	}
}

// TestGatedCrewFullReset: after a complete run on a gated crew — a
// watchdog and a stuck window attached — FullReset rewinds the paper
// platform to its build, and a second run reproduces the plain walk's
// fresh run byte for byte; on a crew of two standing down after every
// probe window too, the plain walk on a crew.
func TestGatedCrewFullReset(t *testing.T) {
	cfg := paper(t, platform.PaperOptions{PacketsPerTG: 12})
	cfg.Trace = &probe.Config{}
	setup := func(p *platform.Platform) {
		if _, err := p.AttachWatchdog(2_000); err != nil {
			panic(err)
		}
		faults(fault.Spec{Link: 0, Mode: link.FaultStuck, From: 100, Until: 300})(p)
	}
	want := runOutcome(t, build(t, cfg, nil, setup), 1_000_000)
	if !want.stopped {
		t.Fatal("the plain run did not complete")
	}
	for _, w := range append(crewWalks, walk{"crew=2,standing-down", 2, true}) {
		t.Run(w.name, func(t *testing.T) {
			p := build(t, cfg, &w, setup)
			if d := runOutcome(t, p, 1_000_000).differ(want); d != "" {
				t.Fatalf("before any reset: %s", d)
			}
			if err := p.FullReset(); err != nil {
				t.Fatal(err)
			}
			if c := p.Engine().Cycle(); c != 0 {
				t.Fatalf("cycle %d after FullReset", c)
			}
			if d := runOutcome(t, p, 1_000_000).differ(want); d != "" {
				t.Errorf("after FullReset: %s", d)
			}
			w.check(t, p)
		})
	}
}
