// Determinism property tests for the parallel kernel: for every tested
// worker count the full platform snapshot (receptor histograms, latency
// stats, switch and link counters) must be byte-identical to the
// sequential kernel, on the paper platform and on a 4x4 mesh.
//
// External test package: monitor imports platform, so these tests
// cannot live inside package platform.
package platform_test

import (
	"bytes"
	"fmt"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

var parallelWorkerCounts = []int{1, 2, 4, 7}

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

// takeSnapshot builds a platform from cfg (with the given worker
// count), runs it, and captures the snapshot.
func takeSnapshot(t *testing.T, cfg platform.Config, workers int, maxCycles uint64) snapshot {
	t.Helper()
	cfg.Workers = workers
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	defer p.Close()
	executed, stopped := p.Run(maxCycles)
	var buf bytes.Buffer
	if err := monitor.WriteJSON(&buf, p); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return snapshot{
		json:     buf.Bytes(),
		cycle:    p.Engine().Cycle(),
		executed: executed,
		stopped:  stopped,
	}
}

// diffLine locates the first differing JSON line, for readable failures.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: sequential %q vs parallel %q", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}

func TestParallelPaperPlatformBitIdentical(t *testing.T) {
	// Bounded traffic so the receptor stoppers end the run mid-flight:
	// this also checks the stop cycle, not just free-running statistics.
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 40})
	if err != nil {
		t.Fatal(err)
	}
	const maxCycles = 200_000
	want := takeSnapshot(t, cfg, 0, maxCycles)
	if !want.stopped {
		t.Fatalf("sequential run did not stop (executed %d)", want.executed)
	}
	for _, w := range parallelWorkerCounts {
		got := takeSnapshot(t, cfg, w, maxCycles)
		if !got.equal(want) {
			t.Errorf("workers=%d diverged: cycle %d vs %d, run (%d,%v) vs (%d,%v); %s",
				w, got.cycle, want.cycle, got.executed, got.stopped,
				want.executed, want.stopped, diffLine(want.json, got.json))
		}
	}
}

func TestParallelPaperPlatformBurstTraffic(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperBurst})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 30_000
	want := takeSnapshot(t, cfg, 0, cycles)
	for _, w := range parallelWorkerCounts {
		got := takeSnapshot(t, cfg, w, cycles)
		if !got.equal(want) {
			t.Errorf("workers=%d diverged: %s", w, diffLine(want.json, got.json))
		}
	}
}

// meshConfig builds a fresh 4x4 mesh configuration. A new topology is
// constructed per call because AddSource/AddSink mutate it.
func meshConfig(t *testing.T) platform.Config {
	t.Helper()
	const w = 4
	topo, err := topology.Mesh(w, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.Config{
		Name:     "mesh-4x4-determinism",
		Topology: topo,
		Seed:     7,
	}
	for x := 0; x < w; x++ {
		src := flit.EndpointID(x)
		dst := flit.EndpointID(100 + x)
		if err := topo.AddSource(src, topology.NodeID(x)); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddSink(dst, topology.NodeID((w-1)*w+x)); err != nil {
			t.Fatal(err)
		}
		cfg.TGs = append(cfg.TGs, platform.TGSpec{
			Endpoint: src,
			Gen: &traffic.UniformConfig{
				LenMin: 2, LenMax: 9, GapMin: 3, GapMax: 20,
				Dst: traffic.DstConfig{
					Policy: traffic.DstUniform,
					Dsts:   []flit.EndpointID{100, 101, 102, 103},
				},
				RandomPhase: true,
			},
		})
		cfg.TRs = append(cfg.TRs, platform.TRSpec{Endpoint: dst, Mode: receptor.TraceDriven})
	}
	return cfg
}

func TestParallelMeshBitIdentical(t *testing.T) {
	const cycles = 20_000
	want := takeSnapshot(t, meshConfig(t), 0, cycles)
	for _, w := range parallelWorkerCounts {
		got := takeSnapshot(t, meshConfig(t), w, cycles)
		if !got.equal(want) {
			t.Errorf("workers=%d diverged: %s", w, diffLine(want.json, got.json))
		}
	}
}

// TestParallelWatchdogSerialTick runs the paper platform with the
// progress watchdog attached under every worker count. The watchdog's
// Tick reads statistics owned by other components, which is only
// race-free because it is a SerialTicker; -race on this test is the
// regression check for that mechanism.
func TestParallelWatchdogSerialTick(t *testing.T) {
	run := func(workers int) (snapshot, bool, uint64) {
		cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 25})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		wd, err := p.AttachWatchdog(1_000)
		if err != nil {
			t.Fatal(err)
		}
		executed, stopped := p.Run(100_000)
		var buf bytes.Buffer
		if err := monitor.WriteJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		stalled, at := wd.Stalled()
		return snapshot{buf.Bytes(), p.Engine().Cycle(), executed, stopped}, stalled, at
	}
	want, wantStalled, wantAt := run(0)
	for _, w := range parallelWorkerCounts {
		got, stalled, at := run(w)
		if !got.equal(want) || stalled != wantStalled || at != wantAt {
			t.Errorf("workers=%d diverged (stalled %v@%d vs %v@%d): %s",
				w, stalled, at, wantStalled, wantAt, diffLine(want.json, got.json))
		}
	}
}

// TestParallelRunCyclesThenRunUntil exercises mixed batch entry points
// on one platform instance: warm-up with RunCycles, then RunUntil to
// the stop condition, as the experiments package does.
func TestParallelRunCyclesThenRunUntil(t *testing.T) {
	run := func(workers int) snapshot {
		cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 30})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.RunCycles(500)
		executed, stopped := p.Run(100_000)
		var buf bytes.Buffer
		if err := monitor.WriteJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		return snapshot{buf.Bytes(), p.Engine().Cycle(), executed, stopped}
	}
	want := run(0)
	for _, w := range parallelWorkerCounts {
		if got := run(w); !got.equal(want) {
			t.Errorf("workers=%d diverged: %s", w, diffLine(want.json, got.json))
		}
	}
}
