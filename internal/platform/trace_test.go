// Golden-trace regression tests for the event-tracing subsystem
// (DESIGN.md §11): the exported JSONL trace of the paper's 6-switch
// reference platform is pinned byte-for-byte as a fixture, and every
// kernel variant — sequential and parallel, gated and ungated — must
// reproduce it exactly. A trace diff therefore means the emulation
// changed (or the schema did); regenerate deliberately with
//
//	go test ./internal/platform -run TestGoldenTraces -update
//
// External test package because monitor imports platform.
package platform_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace fixtures")

// goldenCases are the pinned reference runs: the paper platform under
// uniform and under trace-driven (recorded burst) traffic, bounded so
// the receptor stoppers end the run deterministically.
func goldenCases(t *testing.T) map[string]platform.Config {
	t.Helper()
	uniform, err := platform.PaperConfig(platform.PaperOptions{
		Traffic: platform.PaperUniform, PacketsPerTG: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := platform.PaperConfig(platform.PaperOptions{
		Traffic: platform.PaperTrace, PacketsPerTG: 4, PacketsPerBurst: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]platform.Config{
		"uniform":      uniform,
		"trace-driven": traced,
	}
}

// runTraced builds cfg with tracing on, gated or not, runs it to
// completion, and exports the canonical JSONL trace.
func runTraced(t *testing.T, cfg platform.Config, noGate bool) []byte {
	t.Helper()
	cfg.Trace = &probe.Config{}
	cfg.NoGate = noGate
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("noGate=%v: %v", noGate, err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatalf("noGate=%v: run did not complete", noGate)
	}
	var buf bytes.Buffer
	if err := p.Probe().WriteJSONL(&buf); err != nil {
		t.Fatalf("noGate=%v: export: %v", noGate, err)
	}
	return buf.Bytes()
}

// firstTraceDiff locates the first differing JSONL line for readable
// failures.
func firstTraceDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length mismatch: want %d lines, got %d", len(wl), len(gl))
}

func TestGoldenTraces(t *testing.T) {
	for name, cfg := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "trace_"+strings.ReplaceAll(name, "-", "_")+".jsonl")
			reference := runTraced(t, cfg, false)
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
			// The plain walk must reproduce the fixture exactly too; crews
			// do in the engine package's TestGatedCrewGoldenTraces.
			if got := runTraced(t, cfg, true); !bytes.Equal(got, want) {
				t.Errorf("plain trace diverged:\n%s", firstTraceDiff(want, got))
			}
		})
	}
}

// TestTraceObserverEffect checks that attaching the tracing subsystem
// does not perturb the emulation: the monitor's JSON snapshot must be
// byte-identical with tracing on and off, gated or not.
func TestTraceObserverEffect(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 40})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(traced bool, noGate bool) []byte {
		c := cfg
		if traced {
			c.Trace = &probe.Config{}
		}
		c.NoGate = noGate
		p, err := platform.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, stopped := p.Run(1_000_000); !stopped {
			t.Fatal("run did not complete")
		}
		var buf bytes.Buffer
		if err := monitor.WriteJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, noGate := range []bool{false, true} {
		off := snapshot(false, noGate)
		on := snapshot(true, noGate)
		if !bytes.Equal(off, on) {
			t.Errorf("noGate=%v: monitor JSON differs with tracing on:\n%s", noGate, firstTraceDiff(off, on))
		}
	}
}

// TestTraceOffZeroAlloc is the disabled-mode cost guard: with tracing
// off the probe hooks are nil-receiver no-ops, so the steady-state
// cycle loop must still allocate nothing.
func TestTraceOffZeroAlloc(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace != nil {
		t.Fatal("paper config unexpectedly enables tracing")
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RunCycles(2_000)
	avg := testing.AllocsPerRun(20, func() {
		p.RunCycles(100)
	})
	if avg > 0 {
		t.Errorf("tracing-off RunCycles allocates %.1f objects per 100 cycles, want 0", avg)
	}
}

// TestTraceMetricsOverBus checks the probe register bank end to end:
// the monitor pulls the collector's totals over bus 3 and they match
// both the exported event log and the platform's own statistics.
func TestTraceMetricsOverBus(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &probe.Config{}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("run did not complete")
	}
	evs := p.Probe().Events() // finalizes: drains every ring
	var buf bytes.Buffer
	if err := monitor.WriteTraceMetrics(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := fmt.Sprintf("events: %d collected", len(evs)); !strings.Contains(out, want) {
		t.Errorf("report missing %q:\n%s", want, out)
	}
	flitsSent := p.Totals().FlitsSent
	if want := regexp.MustCompile(fmt.Sprintf(`inject\s+%d\b`, flitsSent)); !want.MatchString(out) {
		t.Errorf("report missing inject count %d:\n%s", flitsSent, out)
	}
	if !strings.Contains(out, "--- time series (per window) ---") {
		t.Errorf("report missing time series:\n%s", out)
	}
}
