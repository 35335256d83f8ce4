// Determinism property tests for the parallel walk as the platform API
// reaches it: no setting picks a worker count, so the default kernel
// hires a crew from the helper budget wherever the platform is big
// enough and GOMAXPROCS leaves it helpers. Under GOMAXPROCS 1, 2, 4 and
// 7 the full platform snapshot (receptor histograms, latency stats,
// switch and link counters) must be byte-identical to the plain walk's:
// on the paper platform, which stays below the crew threshold at any
// GOMAXPROCS, and on a 16×16 mesh, which walks on a crew wherever
// GOMAXPROCS > 1. A GOMAXPROCS above the host's processors is left out:
// there a crew's workers spin against each other for the processors,
// dozens of times slower. Crews of a forced size on any platform and
// host are the engine package's (TestGatedCrewGatingMatrix).
//
// External test package: monitor imports platform, so these tests
// cannot live inside package platform.
package platform_test

import (
	"runtime"
	"testing"

	"nocemu/internal/platform"
)

var parallelProcs = []int{1, 2, 4, 7}

// hostProcs is parallelProcs up to the host's processors.
func hostProcs() []int {
	n := 1
	for n < len(parallelProcs) && parallelProcs[n] <= runtime.NumCPU() {
		n++
	}
	return parallelProcs[:n]
}

// parallelSnapshot runs cfg on the default kernel at GOMAXPROCS procs,
// as gateSnapshot does, and returns the snapshot with how many of the
// run's cycles walked on a crew.
func parallelSnapshot(t *testing.T, cfg platform.Config, procs int, maxCycles uint64,
	setup func(t *testing.T, p *platform.Platform)) (snapshot, uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var pooled func() uint64
	s := gateSnapshot(t, cfg, false, maxCycles, func(t *testing.T, p *platform.Platform) {
		if setup != nil {
			setup(t, p)
		}
		pooled = p.Engine().PooledCycles
	})
	return s, pooled()
}

// assertParallel holds the default kernel under every GOMAXPROCS of
// hostProcs to the plain walk, and checks that it walked on a crew
// exactly where crew says it must: crew(procs) reports whether the
// platform hires one at that GOMAXPROCS. It returns the plain walk's
// snapshot.
func assertParallel(t *testing.T, cfg func() platform.Config, maxCycles uint64,
	setup func(t *testing.T, p *platform.Platform), crew func(procs int) bool) snapshot {
	t.Helper()
	want := gateSnapshot(t, cfg(), true, maxCycles, setup)
	for _, procs := range hostProcs() {
		got, pooled := parallelSnapshot(t, cfg(), procs, maxCycles, setup)
		if !got.equal(want) {
			t.Errorf("GOMAXPROCS %d diverged: cycle %d vs %d, run (%d,%v) vs (%d,%v); %s",
				procs, got.cycle, want.cycle, got.executed, got.stopped,
				want.executed, want.stopped, diffLine(want.json, got.json))
		}
		if (pooled > 0) != crew(procs) {
			t.Errorf("GOMAXPROCS %d: %d of %d cycles walked on a crew, want a crew: %v",
				procs, pooled, got.executed, crew(procs))
		}
	}
	return want
}

// never: the paper platform's few switches are below the crew
// threshold, whatever the host.
func never(int) bool { return false }

// beyondOne: a 16×16 mesh hires a crew wherever GOMAXPROCS leaves it a
// helper.
func beyondOne(procs int) bool { return procs > 1 }

func paperCfg(t *testing.T, opts platform.PaperOptions) func() platform.Config {
	return func() platform.Config {
		cfg, err := platform.PaperConfig(opts)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
}

// meshCfg is a 16×16 mesh at 0.1, bounded to packets packets a source
// where packets > 0 (busyMeshStop's bounding).
func meshCfg(t *testing.T, packets uint64) func() platform.Config {
	return func() platform.Config {
		cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(16), Injection: 0.1, Seed: 7, PacketsPerTG: packets})
		if err != nil {
			t.Fatal(err)
		}
		if packets > 0 {
			for i := range cfg.TRs {
				cfg.TRs[i].ExpectPackets = 1
			}
		}
		return cfg
	}
}

func TestParallelPaperPlatformBitIdentical(t *testing.T) {
	// Bounded traffic so the receptor stoppers end the run mid-flight:
	// this also checks the stop cycle, not just free-running statistics.
	want := assertParallel(t, paperCfg(t, platform.PaperOptions{PacketsPerTG: 40}), 200_000, nil, never)
	if !want.stopped {
		t.Fatalf("plain run did not stop (executed %d)", want.executed)
	}
}

func TestParallelPaperPlatformBurstTraffic(t *testing.T) {
	assertParallel(t, paperCfg(t, platform.PaperOptions{Traffic: platform.PaperBurst}), 30_000, nil, never)
}

func TestParallelMeshBitIdentical(t *testing.T) {
	assertParallel(t, meshCfg(t, 0), 3_000, nil, beyondOne)
}

// TestParallelWatchdogSerialTick runs the 16×16 mesh with the progress
// watchdog attached under every GOMAXPROCS of hostProcs. The watchdog's Tick reads
// statistics owned by other components, which is only race-free because
// it is a SerialTicker, ticked after the crew's workers are done with
// the cycle; -race on this test is the regression check for that
// mechanism.
func TestParallelWatchdogSerialTick(t *testing.T) {
	var wd *platform.Watchdog
	watch := func(t *testing.T, p *platform.Platform) {
		var err error
		if wd, err = p.AttachWatchdog(200); err != nil {
			t.Fatal(err)
		}
	}
	want := gateSnapshot(t, meshCfg(t, 0)(), true, 3_000, watch)
	wantStalled, wantAt := wd.Stalled()
	for _, procs := range hostProcs() {
		got, pooled := parallelSnapshot(t, meshCfg(t, 0)(), procs, 3_000, watch)
		stalled, at := wd.Stalled()
		if !got.equal(want) || stalled != wantStalled || at != wantAt {
			t.Errorf("GOMAXPROCS %d diverged (stalled %v@%d vs %v@%d): %s",
				procs, stalled, at, wantStalled, wantAt, diffLine(want.json, got.json))
		}
		if (pooled > 0) != beyondOne(procs) {
			t.Errorf("GOMAXPROCS %d: %d of %d cycles walked on a crew", procs, pooled, got.executed)
		}
	}
}

// TestParallelRunCyclesThenRunUntil exercises mixed batch entry points
// on one platform instance: warm-up with RunCycles, then RunUntil to
// the stop condition, as the experiments package does. The bounded
// mesh stops mid-run, so the stop cycle is checked on a crew too.
func TestParallelRunCyclesThenRunUntil(t *testing.T) {
	warm := func(t *testing.T, p *platform.Platform) { p.RunCycles(500) }
	want := assertParallel(t, meshCfg(t, 30), 100_000, warm, beyondOne)
	if !want.stopped {
		t.Fatalf("plain run did not stop (executed %d)", want.executed)
	}
}
