// Determinism property tests for quiescence-aware scheduling: with
// gating on or off the full platform snapshot must be byte-identical —
// including runs with fault campaigns and runs ended by the deadlock
// watchdog. The same runs on crews of 2, 4, 7 and 16 workers are the
// engine package's (TestGatedCrewGatingMatrix), where a crew can be
// forced.
//
// External test package: monitor imports platform, so these tests
// cannot live inside package platform.
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

// snapshot captures everything observable about a finished run: the
// JSON monitor dump (TG/TR/switch/link statistics incl. histograms and
// latency), the final cycle count, and the RunUntil result.
type snapshot struct {
	json     []byte
	cycle    uint64
	executed uint64
	stopped  bool
}

func (s snapshot) equal(o snapshot) bool {
	return bytes.Equal(s.json, o.json) &&
		s.cycle == o.cycle && s.executed == o.executed && s.stopped == o.stopped
}

// diffLine locates the first differing JSON line, for readable failures.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: plain %q vs gated %q", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}

// gateSnapshot builds cfg gated or not, applies an optional post-build
// hook (fault campaigns, watchdogs), runs it and captures the snapshot.
func gateSnapshot(t *testing.T, cfg platform.Config, noGate bool,
	maxCycles uint64, setup func(t *testing.T, p *platform.Platform)) snapshot {
	t.Helper()
	cfg.NoGate = noGate
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("noGate=%v: %v", noGate, err)
	}
	if setup != nil {
		setup(t, p)
	}
	executed, stopped := p.Run(maxCycles)
	var buf bytes.Buffer
	if err := monitor.WriteJSON(&buf, p); err != nil {
		t.Fatalf("noGate=%v: %v", noGate, err)
	}
	return snapshot{
		json:     buf.Bytes(),
		cycle:    p.Engine().Cycle(),
		executed: executed,
		stopped:  stopped,
	}
}

// assertGatingMatrix compares the gated kernel against the plain
// reference and returns the reference.
func assertGatingMatrix(t *testing.T, cfg platform.Config, maxCycles uint64,
	setup func(t *testing.T, p *platform.Platform)) snapshot {
	t.Helper()
	want := gateSnapshot(t, cfg, true, maxCycles, setup)
	if got := gateSnapshot(t, cfg, false, maxCycles, setup); !got.equal(want) {
		t.Errorf("gated diverged: cycle %d vs %d, run (%d,%v) vs (%d,%v); %s",
			got.cycle, want.cycle, got.executed, got.stopped, want.executed, want.stopped,
			diffLine(want.json, got.json))
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
// down"). A 16×16 butterfly keeps about a third of its switches active
// at 0.10, and fewer at 0.02 once the warm-up's first stretch is behind
// it: too few to stand down for, whatever the crew, since a crew walks
// the gated cycles too (EXPERIMENTS.md, "The gate shards").
func TestGatingStandsDownWhenBusy(t *testing.T) {
	paper, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	net := func(topo string, inj float64) platform.Config {
		spec, err := topology.ParseSpec(topo)
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
		from int // the first cycle watched
		want bool
	}{
		{"paper", paper, 0, true},
		{"mesh8x8-saturated", net("mesh:w=8,h=8", 0.3), 0, true},
		{"mesh8x8-light", net("mesh:w=8,h=8", 0.02), 0, false},
		{"bfly16x16-0.10", net("butterfly:w=16,h=16", 0.10), 0, false},
		{"bfly16x16-0.02", net("butterfly:w=16,h=16", 0.02), 512, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := platform.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.RunCycles(uint64(tc.from))
			down := false
			for c := tc.from; c < 2_000 && !down; c += 16 {
				p.RunCycles(16)
				down = p.Engine().StandingDown()
			}
			if down != tc.want {
				t.Errorf("stood down in cycles %d–1 999: %v, want %v", tc.from, down, tc.want)
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
	runOne := func(noGate bool) (snapshot, string) {
		var wd *platform.Watchdog
		s := gateSnapshot(t, cfg, noGate, 50_000, func(t *testing.T, p *platform.Platform) {
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
	want, wantVerdict := runOne(true)
	if got, verdict := runOne(false); !got.equal(want) || verdict != wantVerdict {
		t.Errorf("gated diverged: watchdog %s vs %s, run (%d,%v) vs (%d,%v); %s",
			verdict, wantVerdict, got.executed, got.stopped, want.executed, want.stopped,
			diffLine(want.json, got.json))
	}
	if want.stopped {
		t.Errorf("deadlocked reference run reported a clean stop (executed %d)", want.executed)
	}
	if wantVerdict[:4] != "true" {
		t.Errorf("reference watchdog verdict %s, want a stall", wantVerdict)
	}
}
