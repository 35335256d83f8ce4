// Tests for the topology/workload zoo (DESIGN.md §14): the generator
// registry builds data-centre topologies that route, drain, snapshot
// and trace exactly like the paper platform. The butterfly golden
// trace pins the new generators' cycle-accurate behavior the same way
// trace_test.go pins the reference platform's; regenerate deliberately
// with
//
//	go test ./internal/platform -run TestGoldenButterflyTrace -update
//
// External test package because monitor imports platform.
package platform_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// zooConfig builds a NetConfig platform from a -topo style spec
// string, bounded so the run drains.
func zooConfig(t *testing.T, spec, workload string, packets uint64) platform.Config {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := platform.NetConfig(platform.NetOptions{
		Topo:         s,
		Workload:     workload,
		Injection:    0.2,
		PacketsPerTG: packets,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGoldenButterflyTrace pins the flattened butterfly's exported
// JSONL event trace byte-for-byte, gated and ungated (on crews: the
// engine package's TestGatedCrewGoldenTraces). A diff means the generator's wiring order, the DOR route
// tables, or the workload derivation changed.
func TestGoldenButterflyTrace(t *testing.T) {
	cfg := zooConfig(t, "butterfly:w=3,h=3", "uniform", 4)
	path := filepath.Join("testdata", "trace_butterfly.jsonl")
	// Zoo receptors carry no packet expectations, so the run is a
	// fixed cycle window rather than a stopper-terminated one; the
	// window is long enough for every bounded generator to drain.
	runZooTraced := func(noGate bool) []byte {
		cfg := cfg
		cfg.Trace = &probe.Config{}
		cfg.NoGate = noGate
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatalf("noGate=%v: %v", noGate, err)
		}
		p.RunCycles(4_000)
		if !p.Drained() {
			t.Fatalf("noGate=%v: platform did not drain", noGate)
		}
		var buf bytes.Buffer
		if err := p.Probe().WriteJSONL(&buf); err != nil {
			t.Fatalf("noGate=%v: export: %v", noGate, err)
		}
		return buf.Bytes()
	}
	reference := runZooTraced(false)
	if *updateGolden {
		if err := os.WriteFile(path, reference, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(reference, want) {
		t.Fatalf("gated trace diverged from %s:\n%s",
			path, firstTraceDiff(want, reference))
	}
	if got := runZooTraced(true); !bytes.Equal(got, want) {
		t.Errorf("plain trace diverged:\n%s", firstTraceDiff(want, got))
	}
}

// TestZooScaleBuilds: the three data-centre generators build and run
// at the 1k-terminal scale through the same -topo spec strings the CLI
// accepts, and traffic actually moves.
func TestZooScaleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node builds in -short mode")
	}
	cases := []struct {
		spec      string
		terminals int
		workload  string
	}{
		{"butterfly:w=32,h=32", 1024, "uniform"},
		{"fattree:k=16", 1024, "hotspot"},
		{"dragonfly:p=4,a=8,h=4", 1056, "flows"},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			cfg := zooConfig(t, c.spec, c.workload, 0)
			if got := len(cfg.TGs); got != c.terminals {
				t.Fatalf("terminals = %d, want %d", got, c.terminals)
			}
			p, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.RunCycles(300)
			if tot := p.Totals(); tot.FlitsReceived == 0 {
				t.Errorf("no flits delivered after 300 cycles (sent %d)", tot.FlitsSent)
			}
		})
	}
}

// TestBuildRetainedHeap guards what a built platform keeps alive. At
// 1 024 nodes the routing table is the term that scales with switches ×
// sinks: as per-switch maps it alone held 88 MB of the 123 MB this
// build retained; the flat table brought the whole platform near 42 MB,
// sharing the one-port runs of its candidate pool to 34 MB, and two-byte
// cells plus register banks that declare nothing before their first
// access (16 MB of closures) to under 14. One shared sink list in place
// of a copy per source took it from 12.1 to 10.1 MB. The banks stay
// undeclared through everything that is not a bus access: the kernel,
// the struct-side totals, snapshot, restore and full reset retain no
// more. The butterfly row has 7 680 links and retains 6.4 MB: keeping
// the topology's construction-time link index alive past compilation
// adds 0.4 MB and fails it.
func TestBuildRetainedHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1k-node build; the race detector's shadow memory is not the platform's")
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, c := range []struct {
		spec  string
		limit float64 // MB
	}{
		{"mesh:w=32,h=32", 11},
		{"butterfly:w=16,h=16", 6.6},
	} {
		before := live()
		p, err := platform.Build(zooConfig(t, c.spec, "uniform", 0))
		if err != nil {
			t.Fatal(err)
		}
		if got := float64(live()-before) / (1 << 20); got > c.limit {
			t.Errorf("built %s retains %.1f MB, want under %g", c.spec, got, c.limit)
		}
		p.RunCycles(200)
		p.Totals()
		snap, err := p.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RestoreBytes(snap); err != nil {
			t.Fatal(err)
		}
		snap = nil
		if err := p.FullReset(); err != nil {
			t.Fatal(err)
		}
		if got := float64(live()-before) / (1 << 20); got > c.limit {
			t.Errorf("%s retains %.1f MB after a run, totals, a snapshot, a restore and a full reset, want under %g: some path declares register banks or keeps construction state", c.spec, got, c.limit)
		}
	}
}

// TestNetConfigSharesSinkList: every TG a workload emits draws from the
// one sink list NetConfig built, not from a copy of its own, and the
// hotspot victim list is one slice too. With one terminal there is no
// other sink, and the build fails as it did when the list was copied:
// the shared list with its one entry excluded is empty.
func TestNetConfigSharesSinkList(t *testing.T) {
	for _, wl := range []string{"uniform", "hotspot", "flows"} {
		cfg := zooConfig(t, "mesh:w=4,h=4", wl, 0)
		var first, hot *traffic.DstConfig
		for i, tg := range cfg.TGs {
			var dst *traffic.DstConfig
			switch c := tg.Gen.(type) {
			case *traffic.UniformConfig:
				dst = &c.Dst
			case *traffic.FlowConfig:
				dst = &c.Dst
			default:
				t.Fatalf("%s TG %d: model %s", wl, i, tg.Gen.Model())
			}
			if len(dst.Dsts) != len(cfg.TRs) {
				t.Fatalf("%s TG %d: %d sinks listed, %d exist", wl, i, len(dst.Dsts), len(cfg.TRs))
			}
			if first == nil {
				first = dst
			} else if &dst.Dsts[0] != &first.Dsts[0] {
				t.Fatalf("%s TG %d: its sink list is a copy", wl, i)
			}
			if wl == "hotspot" {
				if hot == nil {
					hot = dst
				} else if &dst.Hot[0] != &hot.Hot[0] {
					t.Fatalf("hotspot TG %d: its victim list is a copy", i)
				}
			}
		}
	}
	for wl, model := range map[string]string{"uniform": "uniform", "hotspot": "uniform", "flows": "flow"} {
		_, err := platform.Build(zooConfig(t, "line:n=1", wl, 0))
		if want := "platform line-1: TG 0: " + model + " model: traffic: no destinations"; err == nil || err.Error() != want {
			t.Errorf("one-terminal %s build: err = %v, want %s", wl, err, want)
		}
	}
}

// BenchmarkBuildNet times NetConfig + Build — what every sweep point,
// fork-less run and cold session pays before its first cycle — and
// reports what the pair allocates. The butterflies are the radix-heavy
// case: 7 680 links at 256 nodes and 63 488 at 1 024, so a stage that
// scans pairs of links, sinks or ports shows there first.
func BenchmarkBuildNet(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"mesh1024", "mesh:w=32,h=32"},
		{"bfly256", "butterfly:w=16,h=16"},
		{"bfly1024", "butterfly:w=32,h=32"},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec, err := topology.ParseSpec(c.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: 0.02, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := platform.Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestZooDeterministicRebuild: two builds from equal zoo options are
// bit-identical — the registry path inherits the platform's
// reproducibility guarantee.
func TestZooDeterministicRebuild(t *testing.T) {
	mk := func() platform.Config { return zooConfig(t, "dragonfly:p=2,a=4,h=2", "incast", 6) }
	a, err := platform.Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	a.RunCycles(2_000)
	wantOut := capture(t, a)
	b, err := platform.Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	b.RunCycles(2_000)
	gotOut := capture(t, b)
	if !gotOut.equal(wantOut) {
		t.Errorf("rebuild diverged: %s", gotOut.diff(wantOut))
	}
}

// TestSnapshotRestoreZooFlows: snapshot/restore-and-continue on a
// zoo platform under the flow-arrival workload — the .nocsnap contract
// (restore is invisible in every exported byte) extends to the new
// topologies and the new generator state (flow remainder, busy
// countdown, wave schedule).
func TestSnapshotRestoreZooFlows(t *testing.T) {
	mk := func() platform.Config { return zooConfig(t, "fattree:k=4", "flows", 0) }
	const total, cut = 3_000, 1_300

	ref, err := platform.Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	ref.RunCycles(total)
	want := capture(t, ref)
	ref.Close()

	src, err := platform.Build(mk())
	if err != nil {
		t.Fatal(err)
	}
	src.RunCycles(cut)
	snap, err := src.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	p := buildSnap(t, mk(), false, nil)
	if err := p.RestoreBytes(snap); err != nil {
		t.Fatal(err)
	}
	p.RunCycles(total - cut)
	if got := capture(t, p); !got.equal(want) {
		t.Errorf("diverged after restore: %s", got.diff(want))
	}
}

// TestMinimalTorusRejected: the documented deadlock-prone combination
// — minimal (wrap-using) torus routing without dateline VCs — must be
// rejected at build time by the CDG checker, and must build when the
// config explicitly opts out of the check.
func TestMinimalTorusRejected(t *testing.T) {
	cfg := zooConfig(t, "torus:w=4,h=4,minimal=1", "uniform", 10)
	if _, err := platform.Build(cfg); err == nil {
		t.Fatal("deadlock-prone minimal torus routing accepted")
	}
	cfg.AllowDeadlock = true
	if _, err := platform.Build(cfg); err != nil {
		t.Fatalf("AllowDeadlock build: %v", err)
	}
}
