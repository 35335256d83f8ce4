// Determinism property tests for quiescence-aware scheduling: with
// gating on or off, under the sequential kernel and every tested
// parallel worker count, the full platform snapshot must be
// byte-identical — including runs with fault campaigns and runs ended
// by the deadlock watchdog.
//
// External test package for the same reason as parallel_test.go:
// monitor imports platform.
package platform_test

import (
	"bytes"
	"fmt"
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// gatingWorkerCounts spans the sequential kernel and a worker sweep
// past the shard count of the 6-switch platform.
var gatingWorkerCounts = []int{0, 1, 2, 4, 7, 16}

// gatingVariants enumerates the full kernel matrix.
func gatingVariants() []struct {
	workers int
	noGate  bool
} {
	var vs []struct {
		workers int
		noGate  bool
	}
	for _, w := range gatingWorkerCounts {
		for _, ng := range []bool{false, true} {
			vs = append(vs, struct {
				workers int
				noGate  bool
			}{w, ng})
		}
	}
	return vs
}

// gateSnapshot is takeSnapshot plus gating control and an optional
// post-build hook (fault campaigns, watchdogs).
func gateSnapshot(t *testing.T, cfg platform.Config, workers int, noGate bool,
	maxCycles uint64, setup func(t *testing.T, p *platform.Platform)) snapshot {
	t.Helper()
	cfg.Workers = workers
	cfg.NoGate = noGate
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("workers=%d noGate=%v: %v", workers, noGate, err)
	}
	defer p.Close()
	if setup != nil {
		setup(t, p)
	}
	executed, stopped := p.Run(maxCycles)
	var buf bytes.Buffer
	if err := monitor.WriteJSON(&buf, p); err != nil {
		t.Fatalf("workers=%d noGate=%v: %v", workers, noGate, err)
	}
	return snapshot{
		json:     buf.Bytes(),
		cycle:    p.Engine().Cycle(),
		executed: executed,
		stopped:  stopped,
	}
}

// assertGatingMatrix compares every kernel variant against the naive
// sequential reference.
func assertGatingMatrix(t *testing.T, cfg platform.Config, maxCycles uint64,
	setup func(t *testing.T, p *platform.Platform)) snapshot {
	t.Helper()
	want := gateSnapshot(t, cfg, 0, true, maxCycles, setup)
	for _, v := range gatingVariants() {
		if v.workers == 0 && v.noGate {
			continue // the reference itself
		}
		got := gateSnapshot(t, cfg, v.workers, v.noGate, maxCycles, setup)
		if !got.equal(want) {
			t.Errorf("workers=%d noGate=%v diverged: cycle %d vs %d, run (%d,%v) vs (%d,%v); %s",
				v.workers, v.noGate, got.cycle, want.cycle,
				got.executed, got.stopped, want.executed, want.stopped,
				diffLine(want.json, got.json))
		}
	}
	return want
}

func TestGatingPaperPlatformTrafficMatrix(t *testing.T) {
	cases := []struct {
		name      string
		opts      platform.PaperOptions
		maxCycles uint64
		wantStop  bool
	}{
		// Bounded uniform traffic: the receptor stoppers end the run, so
		// the exact stop cycle is part of the property.
		{"uniform", platform.PaperOptions{PacketsPerTG: 40}, 200_000, true},
		// Free-running burst traffic: long idle gaps between bursts are
		// exactly the windows gating skips.
		{"burst", platform.PaperOptions{Traffic: platform.PaperBurst}, 25_000, false},
		// Trace-driven: scripted injection cycles, bounded.
		{"trace", platform.PaperOptions{Traffic: platform.PaperTrace, PacketsPerTG: 40}, 200_000, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := platform.PaperConfig(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := assertGatingMatrix(t, cfg, tc.maxCycles, nil)
			if want.stopped != tc.wantStop {
				t.Errorf("reference run stopped=%v, want %v (executed %d)",
					want.stopped, tc.wantStop, want.executed)
			}
		})
	}
}

// TestGatingArenaScaleMatrix runs the matrix on platforms whose arenas
// hold enough elements to matter: a 64-node mesh at light load, where
// most switches and wire pairs are parked at any time and re-armed by
// passing flits, the same mesh saturated, where the gates stand down
// and resume twice over, a flattened butterfly of 7-port
// switches, and a minimally routed torus on two virtual channels (two
// lanes per port, two credit wires per pair). Element park/re-arm is
// thereby compared against the naive sequential reference at arena
// scale.
func TestGatingArenaScaleMatrix(t *testing.T) {
	cases := []struct {
		name, topo string
		injection  float64
		cycles     uint64
	}{
		{"mesh8x8-light", "mesh:w=8,h=8", 0.02, 3_000},
		{"mesh8x8-saturated", "mesh:w=8,h=8", 0.3, 1_000},
		{"butterfly4x4", "butterfly:w=4,h=4", 0.1, 2_000},
		{"torus4x4-dateline", "torus:w=4,h=4,minimal=1,vcs=2", 0.2, 2_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := topology.ParseSpec(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: tc.injection})
			if err != nil {
				t.Fatal(err)
			}
			assertGatingMatrix(t, cfg, tc.cycles, nil)
		})
	}
}

// TestGatingStandsDownWhenBusy: the gates stand down on a saturated
// mesh and on the paper platform at its 45 % load, where parking costs
// more than it saves, and never on the same mesh lightly loaded, where
// it saves most of the cycle (EXPERIMENTS.md, "A gate that stands
// down").
func TestGatingStandsDownWhenBusy(t *testing.T) {
	paper, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mesh := func(inj float64) platform.Config {
		spec, err := topology.ParseSpec("mesh:w=8,h=8")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: inj})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  platform.Config
		want bool
	}{
		{"paper", paper, true},
		{"mesh8x8-saturated", mesh(0.3), true},
		{"mesh8x8-light", mesh(0.02), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := platform.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			down := false
			for c := 0; c < 2_000 && !down; c += 16 {
				p.RunCycles(16)
				down = p.Engine().StandingDown()
			}
			if down != tc.want {
				t.Errorf("stood down within 2 000 cycles: %v, want %v", down, tc.want)
			}
		})
	}
}

// TestGatingFaultedBitIdentical runs a fault campaign (a stuck window
// and a corrupt window on the hot links) under the full matrix: the
// fault controller's wake schedule and the faulted links' statistics
// must survive fast-forwarding unchanged.
func TestGatingFaultedBitIdentical(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 30})
	if err != nil {
		t.Fatal(err)
	}
	setup := func(t *testing.T, p *platform.Platform) {
		if _, err := p.AddFaults([]fault.Spec{
			{Link: 0, Mode: link.FaultStuck, From: 500, Until: 2_500},
			{Link: 1, Mode: link.FaultCorrupt, From: 100, Until: 400},
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := assertGatingMatrix(t, cfg, 100_000, setup)
	if !want.stopped {
		t.Errorf("faulted reference run did not stop (executed %d)", want.executed)
	}
}

// TestGatingDeadlockAbortBitIdentical pins a permanently stuck link so
// the watchdog must abort: the abort cycle is reached by counting
// stalled cycles, which gating must never skip (the watchdog only
// parks on a fully drained network).
func TestGatingDeadlockAbortBitIdentical(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 50})
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog verdict (stalled flag + stall cycle) is compared
	// alongside the snapshot.
	runOne := func(workers int, noGate bool) (snapshot, string) {
		var wd *platform.Watchdog
		s := gateSnapshot(t, cfg, workers, noGate, 50_000, func(t *testing.T, p *platform.Platform) {
			if _, err := p.AddFaults([]fault.Spec{
				{Link: 0, Mode: link.FaultStuck, From: 200, Until: 1 << 40},
			}); err != nil {
				t.Fatal(err)
			}
			var err error
			if wd, err = p.AttachWatchdog(800); err != nil {
				t.Fatal(err)
			}
		})
		stalled, at := wd.Stalled()
		return s, fmt.Sprintf("%v@%d", stalled, at)
	}
	want, wantVerdict := runOne(0, true)
	for _, v := range gatingVariants() {
		if v.workers == 0 && v.noGate {
			continue
		}
		got, verdict := runOne(v.workers, v.noGate)
		if !got.equal(want) || verdict != wantVerdict {
			t.Errorf("workers=%d noGate=%v diverged: watchdog %s vs %s, run (%d,%v) vs (%d,%v); %s",
				v.workers, v.noGate, verdict, wantVerdict,
				got.executed, got.stopped, want.executed, want.stopped,
				diffLine(want.json, got.json))
		}
	}
	if want.stopped {
		t.Errorf("deadlocked reference run reported a clean stop (executed %d)", want.executed)
	}
	if wantVerdict[:4] != "true" {
		t.Errorf("reference watchdog verdict %s, want a stall", wantVerdict)
	}
}

// TestGatingResetRerunBitIdentical drives the same run/Reset/run
// sequence gated and ungated on free-running burst traffic: Reset must
// settle outstanding skip accounting and restart the gating watermarks
// on the new timeline.
func TestGatingResetRerunBitIdentical(t *testing.T) {
	run := func(noGate bool) snapshot {
		cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperBurst})
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoGate = noGate
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.RunCycles(7_000)
		p.Engine().Reset()
		executed, stopped := p.Run(7_000)
		var buf bytes.Buffer
		if err := monitor.WriteJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		return snapshot{buf.Bytes(), p.Engine().Cycle(), executed, stopped}
	}
	want := run(true)
	got := run(false)
	if !got.equal(want) {
		t.Errorf("gated run/Reset/run diverged from naive: %s", diffLine(want.json, got.json))
	}
}

// TestGatingFreshEngineAfterReset checks that a platform which Resets
// its engine before ever running matches a freshly built platform.
func TestGatingFreshEngineAfterReset(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 25})
	if err != nil {
		t.Fatal(err)
	}
	fresh := gateSnapshot(t, cfg, 0, false, 100_000, nil)
	reset := gateSnapshot(t, cfg, 0, false, 100_000,
		func(t *testing.T, p *platform.Platform) { p.Engine().Reset() })
	if !reset.equal(fresh) {
		t.Errorf("Reset-then-Run diverged from fresh engine: %s", diffLine(fresh.json, reset.json))
	}
}
