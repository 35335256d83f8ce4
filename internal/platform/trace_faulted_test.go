package platform_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
)

// faultedSpecs is the campaign of the faulted golden trace. Link 0
// sticks and clears mid-run, so a flit is held and later released.
// Link 1 corrupts for a window but carries no traffic on this platform;
// link 14 does, and its corrupt window opens and closes while flits
// cross it. Link 6 sticks inside a corrupt window, so its mode goes
// corrupt, stuck, corrupt, none.
var faultedSpecs = []fault.Spec{
	{Link: 0, Mode: link.FaultStuck, From: 20, Until: 60},
	{Link: 1, Mode: link.FaultCorrupt, From: 15, Until: 100},
	{Link: 14, Mode: link.FaultCorrupt, From: 30, Until: 90},
	{Link: 6, Mode: link.FaultCorrupt, From: 40, Until: 120},
	{Link: 6, Mode: link.FaultStuck, From: 70, Until: 85},
}

// runFaulted is runTraced with the faulted campaign added after Build.
func runFaulted(t *testing.T, noGate bool) (trace []byte, held, corrupted uint64) {
	t.Helper()
	cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &probe.Config{}
	cfg.NoGate = noGate
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("noGate=%v: %v", noGate, err)
	}
	if _, err := p.AddFaults(faultedSpecs); err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatalf("noGate=%v: run did not complete", noGate)
	}
	var buf bytes.Buffer
	if err := p.Probe().WriteJSONL(&buf); err != nil {
		t.Fatalf("noGate=%v: export: %v", noGate, err)
	}
	for _, s := range faultedSpecs {
		l, _ := p.Link(s.Link)
		held += l.HeldCycles()
		corrupted += l.Corrupted()
	}
	return buf.Bytes(), held, corrupted
}

// TestGoldenTraceFaulted pins what the fault-free golden traces cannot:
// when a stuck wire holds a flit, when it lets it go, and which flits a
// corrupting wire flips. The plain and gated walks must each reproduce
// the fixture byte for byte (on crews: the engine package's
// TestGatedCrewGoldenTraces) — comparing them only with each
// other would pass a drift they all share. Regenerate deliberately with
// -update.
func TestGoldenTraceFaulted(t *testing.T) {
	path := filepath.Join("testdata", "trace_faulted.jsonl")
	reference, held, corrupted := runFaulted(t, false)
	if held == 0 || corrupted == 0 {
		t.Fatalf("campaign held %d cycles and corrupted %d flits; it must do both", held, corrupted)
	}
	if *updateGolden {
		if err := os.WriteFile(path, reference, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	for _, noGate := range []bool{true, false} {
		got, _, _ := runFaulted(t, noGate)
		if !bytes.Equal(got, want) {
			t.Errorf("noGate=%v trace diverged from %s:\n%s", noGate, path, firstTraceDiff(want, got))
		}
	}
}

// TestFaultedRestoreAtBoundaries cuts the faulted run around every
// window edge — the cycle before, at and after it — and continues from
// the snapshot in a fresh platform under each walk: the trace must
// still be the fixture. A restored wire must apply its fault to the
// first cycle's flits exactly as the uninterrupted run does.
func TestFaultedRestoreAtBoundaries(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "trace_faulted.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	build := func(noGate bool) *platform.Platform {
		cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 6})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = &probe.Config{}
		cfg.NoGate = noGate
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddFaults(faultedSpecs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cuts := map[uint64]bool{}
	for _, s := range faultedSpecs {
		for _, edge := range []uint64{s.From, s.Until} {
			cuts[edge-1], cuts[edge], cuts[edge+1] = true, true, true
		}
	}
	for cut := range cuts {
		src := build(false)
		src.RunCycles(cut)
		snap, err := src.SnapshotBytes()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, noGate := range []bool{true, false} {
			p := build(noGate)
			if err := p.RestoreBytes(snap); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if _, stopped := p.Run(1_000_000); !stopped {
				t.Fatalf("cut %d: run did not complete", cut)
			}
			var buf bytes.Buffer
			if err := p.Probe().WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("cut %d, noGate=%v: trace diverged:\n%s", cut, noGate, firstTraceDiff(want, buf.Bytes()))
			}
		}
	}
}

// TestFaultedSnapshotsPinned snapshots the faulted run after every cycle
// — a held flit's HELD count, a release between two cycles, a flipped
// payload on the wire — and folds the snapshot hashes into one digest,
// taken from the code before wires judged faults at Send. The trace
// does not carry these counters; the snapshot does.
func TestFaultedSnapshotsPinned(t *testing.T) {
	const want = "6d14ee4d544984275adea93c92fb43e068187ab38fdcf6feb6cc119a9c422518"
	for _, noGate := range []bool{true, false} {
		cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 6})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = &probe.Config{}
		cfg.NoGate = noGate
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddFaults(faultedSpecs); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		for c := uint64(1); c <= 170; c++ {
			p.RunCycles(1)
			b, err := p.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&log, "%d %x\n", c, sha256.Sum256(b))
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(log.Bytes())); got != want {
			t.Errorf("noGate=%v: snapshot digest %s, want %s", noGate, got, want)
		}
	}
}
