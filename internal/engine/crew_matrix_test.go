package engine_test

import (
	"bytes"
	"slices"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/receptor"
	"nocemu/internal/state"
	"nocemu/internal/traffic"
)

// The platform package's schedule-independence checks, on crews forced
// on any host: a restore over a dirty platform, the collector's window
// samples, snapshot bytes after the same run, and the flit pool after a
// drain. The platform package holds the same runs to the plain and the
// default gated walks.

// scriptable makes every source of cfg accept scripted packets.
func scriptable(cfg platform.Config) platform.Config {
	for i := range cfg.TGs {
		cfg.TGs[i].Scripted = true
	}
	return cfg
}

// soil scripts extra packets from every source to every sink, so the
// platform runs on with more flows and more packets in flight than the
// snapshot it will be restored from.
func soil(t *testing.T, p *platform.Platform) {
	t.Helper()
	at := p.Engine().Cycle()
	for _, tg := range p.Config().TGs {
		for k, tr := range p.Config().TRs {
			rec := traffic.ScriptRec{At: at + uint64(k), Dst: tr.Endpoint, Len: 3, Payload: uint32(k)}
			if err := p.InjectScript(tg.Endpoint, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRestoreOverDirtyPlatform is the serve path's restore on a crew:
// into a platform that has run far past the snapshot, with more flows
// and packets in flight than it holds. The restored platform must
// re-save the snapshot's bytes, and run on to the monitor JSON and trace
// of a fresh build restored from the same snapshot, on a crew of two
// with its gates up or standing down.
func TestRestoreOverDirtyPlatform(t *testing.T) {
	const at, past, more = 500, 2500, 700
	served := net(t, "mesh:w=4,h=4", platform.NetOptions{Injection: 0.1})
	for i := range served.TRs {
		served.TRs[i].Mode = receptor.TraceDriven
		served.TRs[i].TrackLast = true
	}
	torus := net(t, "torus:w=4,h=4,minimal=1,vcs=2", platform.NetOptions{Injection: 0.5})
	traced := paper(t, platform.PaperOptions{})
	traced.Trace = &probe.Config{}
	for _, pc := range []struct {
		name  string
		cfg   platform.Config
		setup func(p *platform.Platform)
	}{
		{"paper", scriptable(paper(t, platform.PaperOptions{})), nil},
		{"mesh4x4-served", scriptable(served), nil},
		{"torus4x4-vcs2", scriptable(torus), nil},
		{"paper-faulted-traced", scriptable(traced), faults(
			fault.Spec{Link: 0, Mode: link.FaultStuck, From: 350, Until: 1200},
			fault.Spec{Link: 3, Mode: link.FaultCorrupt, From: 100, Until: 3000},
		)},
	} {
		for _, w := range []walk{{"crew=2", 2, false}, {"crew=2,standing-down", 2, true}} {
			t.Run(pc.name+"/"+w.name, func(t *testing.T) {
				p := build(t, pc.cfg, &w, pc.setup)
				p.RunCycles(at)
				snap, err := p.SnapshotBytes()
				if err != nil {
					t.Fatal(err)
				}
				soil(t, p)
				p.RunCycles(past)
				soil(t, p)
				p.RunCycles(7)
				if err := p.RestoreBytes(snap); err != nil {
					t.Fatal(err)
				}
				if again, _ := p.SnapshotBytes(); !bytes.Equal(again, snap) {
					t.Fatalf("re-saved %d bytes differ from the %d restored", len(again), len(snap))
				}
				p.RunCycles(more)
				got := runOutcome(t, p, 0)

				fresh := build(t, pc.cfg, &w, pc.setup)
				if err := fresh.RestoreBytes(snap); err != nil {
					t.Fatal(err)
				}
				fresh.RunCycles(more)
				if d := got.differ(runOutcome(t, fresh, 0)); d != "" {
					t.Errorf("restored over a dirty platform, then %d cycles: %s", more, d)
				}
				w.check(t, p)
			})
		}
	}
}

// TestWindowSamplesPinned pins the collector's window-boundary samples
// on crews: the numbers the platform package's test pins for the plain
// and gated walks.
func TestWindowSamplesPinned(t *testing.T) {
	for _, tc := range []struct {
		spec      string
		inj       float64
		occ, busy []uint64
	}{
		{"mesh:w=8,h=8", 0.30,
			[]uint64{0, 343, 302, 437, 435, 458, 443, 488, 486, 497},
			[]uint64{5063, 6240, 6642, 6114, 5539, 4972, 5845, 5690, 6298, 5810}},
		{"torus:w=4,h=4,vcs=2", 0.20,
			[]uint64{0, 20, 10, 10, 15, 13, 18, 18, 14, 24},
			[]uint64{568, 579, 579, 587, 559, 474, 557, 557, 631, 685}},
	} {
		for _, w := range []walk{{"crew=2", 2, false}, {"crew=7", 7, false}} {
			t.Run(tc.spec+"/"+w.name, func(t *testing.T) {
				cfg := net(t, tc.spec, platform.NetOptions{Injection: tc.inj, Seed: 7})
				cfg.Trace = &probe.Config{}
				p := build(t, cfg, &w, nil)
				p.RunCycles(640)
				var occ, busy []uint64
				for k, c := 0, p.Probe(); k < c.WindowCount(); k++ {
					occ = append(occ, c.WindowOcc(k))
					busy = append(busy, c.WindowBusy(k))
				}
				if !slices.Equal(occ, tc.occ) || !slices.Equal(busy, tc.busy) {
					t.Errorf("window samples:\nocc  %v\nbusy %v\nwant\nocc  %v\nbusy %v", occ, busy, tc.occ, tc.busy)
				}
				w.check(t, p)
			})
		}
	}
}

// TestCrewSnapshotBytesIgnoreSchedule: a snapshot says where the
// platform is, not how the kernel got there — not even which worker of
// a crew ticked what. The same run, split over two RunCycles, leaves the
// plain walk's bytes on every crew, its gates up or standing down. The
// flit pool's allocation ledger is among them: a shard reuses no flit in
// the cycle it was released in, whichever worker released it first.
func TestCrewSnapshotBytesIgnoreSchedule(t *testing.T) {
	traced := paper(t, platform.PaperOptions{PacketsPerTG: 5})
	traced.Trace = &probe.Config{}
	for _, r := range []struct {
		name   string
		cfg    platform.Config
		cycles uint64
	}{
		{"paper", traced, 600},
		{"mesh:w=8,h=8@0.02", net(t, "mesh:w=8,h=8", platform.NetOptions{Injection: 0.02}), 3001},
		{"mesh:w=8,h=8@0.30", net(t, "mesh:w=8,h=8", platform.NetOptions{Injection: 0.30}), 1237},
		{"butterfly:w=4,h=4@0.05", net(t, "butterfly:w=4,h=4", platform.NetOptions{Injection: 0.05}), 3001},
		{"fattree:k=4@0.30", net(t, "fattree:k=4", platform.NetOptions{Injection: 0.30}), 1237},
	} {
		snap := func(w *walk) []state.Frame {
			p := build(t, r.cfg, w, nil)
			p.RunCycles(r.cycles / 3)
			p.RunCycles(r.cycles - r.cycles/3)
			return sections(t, p)
		}
		want := snap(nil)
		for _, w := range append(crewWalks, walk{"crew=2,standing-down", 2, true}) {
			t.Run(r.name+"/"+w.name, func(t *testing.T) {
				got := snap(&w)
				if len(got) != len(want) {
					t.Fatalf("%d sections, the plain walk writes %d", len(got), len(want))
				}
				var differ []string
				for i := range want {
					if !bytes.Equal(got[i].Body, want[i].Body) {
						differ = append(differ, string(want[i].Name))
					}
				}
				if len(differ) > 0 {
					t.Errorf("sections %v differ from the plain walk's", differ)
				}
			})
		}
	}
}

// TestCrewDrainLeakFree is the at-scale pool guard on a crew of four:
// after draining a 16×16 mesh mid-flight, every pooled flit must be back
// on a freelist, whichever worker's shard it was released to.
func TestCrewDrainLeakFree(t *testing.T) {
	w := walk{"crew=4", 4, false}
	p := build(t, net(t, "mesh:w=16,h=16", platform.NetOptions{Injection: 0.1}), &w, nil)
	p.RunCycles(3_000)
	p.Drain()
	if live := p.Pool().Live(); live != 0 {
		t.Errorf("%d flits still live after drain, want 0", live)
	}
	w.check(t, p)
}

// TestPermutedWalk pins the claim every crew rests on directly: no
// component reads in a cycle what another wrote in it. A walk that ticks
// the components and the single arena elements of each cycle reversed,
// shuffled anew every cycle, or with each switch beside its endpoints —
// first or last by cycle — must reproduce trace_uniform.jsonl, the
// cycle-600 snapshot, a mesh row of the gating matrix and a FullReset
// byte for byte. A failure is a same-cycle read-after-write in a
// component: mend the component, never the order.
func TestPermutedWalk(t *testing.T) {
	uniform := paper(t, platform.PaperOptions{Traffic: platform.PaperUniform, PacketsPerTG: 5})
	uniform.Trace = &probe.Config{}
	snapCfg := paper(t, platform.PaperOptions{PacketsPerTG: 5})
	snapCfg.Trace = &probe.Config{}
	meshCfg := net(t, "mesh:w=8,h=8", platform.NetOptions{Injection: 0.3})
	resetCfg := paper(t, platform.PaperOptions{PacketsPerTG: 12})
	resetCfg.Trace = &probe.Config{}
	resetSetup := func(p *platform.Platform) {
		if _, err := p.AttachWatchdog(2_000); err != nil {
			panic(err)
		}
		faults(fault.Spec{Link: 0, Mode: link.FaultStuck, From: 100, Until: 300})(p)
	}
	meshWant := runOutcome(t, build(t, meshCfg, nil, nil), 1_000)
	resetWant := runOutcome(t, build(t, resetCfg, nil, resetSetup), 1_000_000)
	for _, o := range []struct {
		name  string
		order engine.Order
	}{{"reversed", engine.Reversed}, {"shuffled", engine.Shuffled}, {"interleaved", engine.Interleaved}} {
		// run advances p on the permuted walk, as Platform.Run (poll) or
		// RunCycles would.
		run := func(p *platform.Platform, n uint64, poll bool) (uint64, bool) {
			return engine.PermutedRun(p.Engine(), n, poll, o.order, 48)
		}
		t.Run(o.name+"/trace_uniform", func(t *testing.T) {
			p := build(t, uniform, nil, nil)
			if _, stopped := run(p, 1_000_000, true); !stopped {
				t.Fatal("run did not complete")
			}
			if !bytes.Equal(trace(t, p), fixture(t, "trace_uniform.jsonl")) {
				t.Error("the permuted walk's trace differs from trace_uniform.jsonl")
			}
		})
		t.Run(o.name+"/paper_cycle600", func(t *testing.T) {
			p := build(t, snapCfg, nil, nil)
			run(p, 600, false)
			snap, err := p.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, fixture(t, "paper_cycle600.nocsnap")) {
				t.Error("the permuted walk's snapshot at cycle 600 differs from paper_cycle600.nocsnap")
			}
		})
		t.Run(o.name+"/mesh8x8-saturated", func(t *testing.T) {
			p := build(t, meshCfg, nil, nil)
			got := permutedOutcome(t, p, run, 1_000)
			if d := got.differ(meshWant); d != "" {
				t.Errorf("the permuted walk differs from the plain one: %s", d)
			}
		})
		t.Run(o.name+"/full-reset", func(t *testing.T) {
			p := build(t, resetCfg, nil, resetSetup)
			if d := permutedOutcome(t, p, run, 1_000_000).differ(resetWant); d != "" {
				t.Fatalf("before any reset: %s", d)
			}
			if err := p.FullReset(); err != nil {
				t.Fatal(err)
			}
			if d := permutedOutcome(t, p, run, 1_000_000).differ(resetWant); d != "" {
				t.Errorf("after FullReset: %s", d)
			}
		})
	}
}

// permutedOutcome is runOutcome on a permuted walk.
func permutedOutcome(t *testing.T, p *platform.Platform, run func(*platform.Platform, uint64, bool) (uint64, bool), max uint64) outcome {
	t.Helper()
	executed, stopped := run(p, max, true)
	o := runOutcome(t, p, 0)
	o.executed, o.stopped = executed, stopped
	return o
}
