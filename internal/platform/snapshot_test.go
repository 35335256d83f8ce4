// Property tests for deterministic snapshot/restore (DESIGN.md §13):
// interrupting a run with Snapshot and continuing from Restore — in the
// same process, in a differently configured kernel, or in eight forks
// at once — must be invisible in every exported byte. The golden
// .nocsnap fixture pins the codec itself; a diff there means the
// serialization schema changed and the Version constant must move.
//
// External test package because monitor imports platform.
package platform_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/state"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// snapWorkerCounts matches the acceptance matrix: sequential plus a
// sweep past the paper platform's shard count.
var snapWorkerCounts = []int{0, 1, 4, 16}

// runOutput is every exported byte of a finished run: the monitor JSON
// (statistics, histograms, latency) and, when tracing is on, the
// canonical JSONL event stream, plus the final cycle.
type runOutput struct {
	json  []byte
	trace []byte
	cycle uint64
}

func (o runOutput) equal(p runOutput) bool {
	return bytes.Equal(o.json, p.json) && bytes.Equal(o.trace, p.trace) && o.cycle == p.cycle
}

func (o runOutput) diff(p runOutput) string {
	if o.cycle != p.cycle {
		return fmt.Sprintf("cycle %d vs %d", o.cycle, p.cycle)
	}
	if !bytes.Equal(o.json, p.json) {
		return "monitor JSON: " + firstTraceDiff(o.json, p.json)
	}
	return "trace: " + firstTraceDiff(o.trace, p.trace)
}

// capture exports the platform's observable output.
func capture(t *testing.T, p *platform.Platform) runOutput {
	t.Helper()
	var out runOutput
	var buf bytes.Buffer
	if err := monitor.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	out.json = append([]byte(nil), buf.Bytes()...)
	if p.Probe() != nil {
		buf.Reset()
		if err := p.Probe().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out.trace = append([]byte(nil), buf.Bytes()...)
	}
	out.cycle = p.Engine().Cycle()
	return out
}

// paperSnapConfig is the paper platform bounded so receptor stoppers
// end the run, with tracing on so the comparison covers the event
// stream too.
func paperSnapConfig(t *testing.T, packets uint64) platform.Config {
	t.Helper()
	cfg, err := platform.PaperConfig(platform.PaperOptions{PacketsPerTG: packets})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &probe.Config{}
	return cfg
}

// torusSnapConfig is the multi-lane counterpart: minimal routing on a
// 4x4 torus with vcs virtual channels per port (dateline classes from
// two up; one is built with AllowDeadlock), every source streaming
// packets to the sink five switches on — a permutation, so each
// receptor expects exactly that many and the stoppers end the run.
func torusSnapConfig(t *testing.T, vcs int, packets uint64) platform.Config {
	t.Helper()
	cfg, err := platform.NetConfig(platform.NetOptions{
		Topo:         topology.Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4, "minimal": 1, "vcs": vcs}},
		Injection:    0.5,
		PacketsPerTG: packets,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.AllowDeadlock = vcs < 2
	cfg.Trace = &probe.Config{}
	for i := range cfg.TGs {
		dst := cfg.TRs[(i+5)%len(cfg.TRs)].Endpoint
		cfg.TGs[i].Gen.(*traffic.UniformConfig).Dst = traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}}
		cfg.TRs[i].ExpectPackets = packets
	}
	return cfg
}

// buildSnap builds cfg with the given kernel and optional fault
// campaign (the campaign is construction shape: a snapshot taken with
// faults restores only into a platform that also has them).
func buildSnap(t *testing.T, cfg platform.Config, workers int, noGate bool, faults []fault.Spec) *platform.Platform {
	t.Helper()
	cfg.Workers = workers
	cfg.NoGate = noGate
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatalf("workers=%d noGate=%v: %v", workers, noGate, err)
	}
	if faults != nil {
		if _, err := p.AddFaults(faults); err != nil {
			p.Close()
			t.Fatal(err)
		}
	}
	return p
}

// TestSnapshotRestoreContinueBitIdentical is the headline property: a
// run interrupted at cycle C by Snapshot and continued from Restore —
// in a fresh platform under any workers × gate configuration, faults on
// or off — produces monitor JSON and trace bytes identical to the
// uninterrupted run. The snapshotted platform itself must also continue
// unperturbed (snapshot is a pure observer).
func TestSnapshotRestoreContinueBitIdentical(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			cfg := paperSnapConfig(t, 15)
			var specs []fault.Spec
			if withFaults {
				probe, err := platform.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hotA, _, err := probe.PaperHotLinks()
				probe.Close()
				if err != nil {
					t.Fatal(err)
				}
				specs = []fault.Spec{{Link: hotA, Mode: link.FaultStuck, From: 200, Until: 900}}
			}

			// Uninterrupted reference under the sequential gated kernel.
			ref := buildSnap(t, cfg, 0, false, specs)
			if _, stopped := ref.Run(1_000_000); !stopped {
				t.Fatal("reference run did not complete")
			}
			want := capture(t, ref)
			ref.Close()

			// Interrupt a second instance mid-flight.
			cut := want.cycle / 2
			if cut == 0 {
				t.Fatalf("reference stopped at cycle %d; nothing to interrupt", want.cycle)
			}
			src := buildSnap(t, cfg, 0, false, specs)
			defer src.Close()
			src.RunCycles(cut)
			snap, err := src.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}

			// The observed platform continues as if nothing happened.
			if _, stopped := src.Run(1_000_000); !stopped {
				t.Fatal("snapshotted run did not complete")
			}
			if got := capture(t, src); !got.equal(want) {
				t.Errorf("snapshot perturbed the source run: %s", got.diff(want))
			}

			// Restore into every kernel configuration and run to the end.
			for _, workers := range snapWorkerCounts {
				for _, noGate := range []bool{false, true} {
					p := buildSnap(t, cfg, workers, noGate, specs)
					if err := p.RestoreBytes(snap); err != nil {
						p.Close()
						t.Fatalf("workers=%d noGate=%v: %v", workers, noGate, err)
					}
					if got := p.Engine().Cycle(); got != cut {
						p.Close()
						t.Fatalf("workers=%d noGate=%v: restored to cycle %d, want %d",
							workers, noGate, got, cut)
					}
					if _, stopped := p.Run(1_000_000); !stopped {
						p.Close()
						t.Fatalf("workers=%d noGate=%v: restored run did not complete", workers, noGate)
					}
					got := capture(t, p)
					p.Close()
					if !got.equal(want) {
						t.Errorf("workers=%d noGate=%v diverged after restore: %s",
							workers, noGate, got.diff(want))
					}
				}
			}
		})
	}
}

// TestSnapshotKernelPortability checks configuration independence at
// both strengths. Byte level: re-snapshotting an untouched platform is
// idempotent (ring normalization is canonical). Semantic level: a
// snapshot taken under ANY kernel — sequential or parallel, gated or
// not — restores into the sequential gated kernel and finishes
// byte-identically with the uninterrupted reference. (Byte equality
// across kernels is TestSnapshotBytesIgnoreSchedule's.)
func TestSnapshotKernelPortability(t *testing.T) {
	for name, cfg := range map[string]platform.Config{
		"paper": paperSnapConfig(t, 15),
		// Two lanes per port and two credit wires per pair in the arena
		// sections.
		"torus:w=4,h=4,minimal=1,vcs=2": torusSnapConfig(t, 2, 15),
	} {
		t.Run(name, func(t *testing.T) { snapshotKernelPortability(t, cfg) })
	}
}

func snapshotKernelPortability(t *testing.T, cfg platform.Config) {
	ref := buildSnap(t, cfg, 0, false, nil)
	if _, stopped := ref.Run(1_000_000); !stopped {
		t.Fatal("reference run did not complete")
	}
	want := capture(t, ref)
	ref.Close()
	cut := want.cycle / 2
	if cut == 0 {
		t.Fatalf("reference stopped at cycle %d", want.cycle)
	}

	type variant struct {
		workers int
		noGate  bool
	}
	variants := []variant{
		{0, false},
		{0, true},
		{4, false},
		{16, true},
	}
	for _, v := range variants {
		p := buildSnap(t, cfg, v.workers, v.noGate, nil)
		p.RunCycles(cut)
		snap, err := p.SnapshotBytes()
		if err != nil {
			p.Close()
			t.Fatalf("%+v: %v", v, err)
		}
		again, err := p.SnapshotBytes()
		p.Close()
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		if !bytes.Equal(snap, again) {
			t.Errorf("%+v: re-snapshot differs", v)
		}

		// Semantic portability: every variant's snapshot continues to the
		// reference output in the sequential gated kernel.
		q := buildSnap(t, cfg, 0, false, nil)
		if err := q.RestoreBytes(snap); err != nil {
			q.Close()
			t.Fatalf("%+v: restore into sequential gated: %v", v, err)
		}
		if _, stopped := q.Run(1_000_000); !stopped {
			q.Close()
			t.Fatalf("%+v: restored run did not complete", v)
		}
		got := capture(t, q)
		q.Close()
		if !got.equal(want) {
			t.Errorf("%+v snapshot diverged after restore: %s", v, got.diff(want))
		}
	}
}

// TestSnapshotRestoreMesh256 is the scale leg of the acceptance matrix:
// the same interrupt/restore property on a 16×16 mesh (256 switches,
// 512 endpoints) under fixed-cycle runs.
func TestSnapshotRestoreMesh256(t *testing.T) {
	mk := func() platform.Config {
		cfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(16), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	const total, cut = 2_000, 900

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
	src.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range snapWorkerCounts {
		for _, noGate := range []bool{false, true} {
			p := buildSnap(t, mk(), workers, noGate, nil)
			if err := p.RestoreBytes(snap); err != nil {
				p.Close()
				t.Fatalf("workers=%d noGate=%v: %v", workers, noGate, err)
			}
			p.RunCycles(total - cut)
			got := capture(t, p)
			p.Close()
			if !got.equal(want) {
				t.Errorf("workers=%d noGate=%v diverged after restore: %s",
					workers, noGate, got.diff(want))
			}
		}
	}
}

// TestForkMatchesColdRuns checks Fork's warm-start semantics: fork 0 is
// an exact continuation, and every fork i > 0 matches a cold run that
// replays the warm-up and reseeds its TGs with ForkSeed at the same
// cycle. The forks must also diverge from each other — otherwise the
// sweep explores nothing.
func TestForkMatchesColdRuns(t *testing.T) {
	// Burst traffic: the on/off transitions draw from the LFSR every
	// packet, so reseeding at the fork point visibly changes the future
	// (paper uniform traffic is phase-random only — after warm-up its
	// gap, length and destination are all fixed and a reseed is moot).
	cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperBurst})
	if err != nil {
		t.Fatal(err)
	}
	const warm, tail = 1_500, 1_500
	const nForks = 8

	src, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.RunCycles(warm)
	seed := src.Config().Seed

	forks, err := src.Fork(nForks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, f := range forks {
			f.Close()
		}
	}()

	outs := make([]runOutput, nForks)
	for i, f := range forks {
		f.RunCycles(tail)
		outs[i] = capture(t, f)
	}

	for i := 0; i < nForks; i++ {
		cold, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold.RunCycles(warm)
		if i > 0 {
			for _, tg := range cold.TGs() {
				tg.Reseed(platform.ForkSeed(seed, uint16(tg.Injector().Endpoint()), i))
			}
		}
		cold.RunCycles(tail)
		want := capture(t, cold)
		cold.Close()
		if !outs[i].equal(want) {
			t.Errorf("fork %d diverged from its cold-run reference: %s", i, outs[i].diff(want))
		}
	}

	// Distinct forks really explore distinct futures.
	for i := 1; i < nForks; i++ {
		if bytes.Equal(outs[i].json, outs[0].json) {
			t.Errorf("fork %d identical to fork 0; reseeding had no effect", i)
		}
	}
}

// TestFullResetEqualsFreshBuild checks the restore-from-cycle-0 reset:
// after a complete run, FullReset rewinds the platform — watchdog and
// fault campaign included — to a state indistinguishable from a freshly
// built one, so a second run reproduces the first byte for byte.
func TestFullResetEqualsFreshBuild(t *testing.T) {
	cfg := paperSnapConfig(t, 12)
	run := func(p *platform.Platform) runOutput {
		t.Helper()
		if _, stopped := p.Run(1_000_000); !stopped {
			t.Fatal("run did not complete")
		}
		return capture(t, p)
	}
	build := func() *platform.Platform {
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AttachWatchdog(2_000); err != nil {
			p.Close()
			t.Fatal(err)
		}
		if _, err := p.AddFaults([]fault.Spec{
			{Link: 0, Mode: link.FaultStuck, From: 100, Until: 300},
		}); err != nil {
			p.Close()
			t.Fatal(err)
		}
		return p
	}

	fresh := build()
	want := run(fresh)
	fresh.Close()

	p := build()
	defer p.Close()
	first := run(p)
	if !first.equal(want) {
		t.Fatalf("identical builds diverged before any reset: %s", first.diff(want))
	}
	if err := p.FullReset(); err != nil {
		t.Fatal(err)
	}
	if got := p.Engine().Cycle(); got != 0 {
		t.Fatalf("cycle %d after FullReset", got)
	}
	second := run(p)
	if !second.equal(want) {
		t.Errorf("post-reset run diverged from fresh build: %s", second.diff(want))
	}
}

// TestRestoreRejectsDrift checks that every framing or shape mismatch
// fails loudly instead of silently restoring garbage.
func TestRestoreRejectsDrift(t *testing.T) {
	cfg := paperSnapConfig(t, 10)
	src := buildSnap(t, cfg, 0, false, nil)
	defer src.Close()
	src.RunCycles(300)
	snap, err := src.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	// The same platform name at another channel count: the arena
	// sections count lanes and credit wires, so this is drift too.
	two := buildSnap(t, torusSnapConfig(t, 2, 10), 0, false, nil)
	defer two.Close()
	two.RunCycles(300)
	twoLane, err := two.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *platform.Platform { return buildSnap(t, cfg, 0, false, nil) }
	cases := []struct {
		name string
		blob []byte
		into func() *platform.Platform
	}{
		{"truncated", snap[:len(snap)-3], fresh},
		{"bad magic", append([]byte("XSNP"), snap[4:]...), fresh},
		{"future version", func() []byte {
			b := append([]byte(nil), snap...)
			b[4] = byte(state.Version) + 1
			return b
		}(), fresh},
		{"trailing garbage", append(append([]byte(nil), snap...), 0xFF), fresh},
		{"wrong platform", snap, func() *platform.Platform {
			mcfg, err := platform.NetConfig(platform.NetOptions{Topo: mesh(4)})
			if err != nil {
				t.Fatal(err)
			}
			p, err := platform.Build(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"shape mismatch", snap, func() *platform.Platform {
			// Same platform, extra sections: watchdog + fault campaign.
			p := buildSnap(t, cfg, 0, false, []fault.Spec{
				{Link: 0, Mode: link.FaultStuck, From: 10, Until: 20},
			})
			if _, err := p.AttachWatchdog(1_000); err != nil {
				p.Close()
				t.Fatal(err)
			}
			return p
		}},
		{"vcs=2 into vcs=1", twoLane, func() *platform.Platform {
			return buildSnap(t, torusSnapConfig(t, 1, 10), 0, false, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.into()
			defer p.Close()
			if err := p.RestoreBytes(tc.blob); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// TestGoldenSnapshotFixture pins the snapshot codec: the paper platform
// interrupted at a fixed cycle must serialize to the committed .nocsnap
// byte for byte. A diff means the serialization schema drifted —
// regenerate deliberately (and bump state.Version if the layout
// changed) with
//
//	go test ./internal/platform -run TestGoldenSnapshotFixture -update
func TestGoldenSnapshotFixture(t *testing.T) {
	cfg := paperSnapConfig(t, 5)
	p := buildSnap(t, cfg, 0, false, nil)
	defer p.Close()
	p.RunCycles(600)
	snap, err := p.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "paper_cycle600.nocsnap")
	if *updateGolden {
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(snap, want) {
		t.Fatalf("snapshot codec drifted from %s: got %d bytes, fixture %d", path, len(snap), len(want))
	}

	// The committed fixture must remain loadable and runnable.
	q := buildSnap(t, cfg, 0, false, nil)
	defer q.Close()
	if err := q.RestoreBytes(want); err != nil {
		t.Fatalf("fixture does not restore: %v", err)
	}
	if got := q.Engine().Cycle(); got != 600 {
		t.Fatalf("fixture restored to cycle %d, want 600", got)
	}
	if _, stopped := q.Run(1_000_000); !stopped {
		t.Fatal("restored fixture run did not complete")
	}
}

// TestGoldenSnapshotGatedPR19 keeps the fixture's previous bytes alive.
// Up to PR 19 a parked device left the credits it slept through on the
// wire, so the gated kernel wrote the same state with a different split
// between wires and counters (the bytes NoGate wrote then are the
// fixture's now). The format did not change: the old file restores and
// continues to the monitor JSON and trace bytes of an uninterrupted run.
func TestGoldenSnapshotGatedPR19(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "paper_cycle600_gated_pr19.nocsnap"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperSnapConfig(t, 5)
	ref := buildSnap(t, cfg, 0, false, nil)
	defer ref.Close()
	ref.RunCycles(600)
	ref.RunCycles(400)
	want := capture(t, ref)
	for _, noGate := range []bool{false, true} {
		p := buildSnap(t, cfg, 0, noGate, nil)
		if err := p.RestoreBytes(old); err != nil {
			t.Fatalf("noGate=%v: the PR 19 fixture does not restore: %v", noGate, err)
		}
		p.RunCycles(400)
		if got := capture(t, p); !got.equal(want) {
			t.Errorf("noGate=%v: continued from the PR 19 fixture: %s", noGate, got.diff(want))
		}
		p.Close()
	}
}

// TestSnapshotBytesIgnoreSchedule: a snapshot says where the platform
// is, not how the kernel got there. The same run — split over two
// RunCycles so a settle happens on the way — is snapshotted under the
// sequential kernel with and without gating and under two workers with
// and without fast-forward, and all four agree on every byte. The flit
// pool's allocation ledger is among them: a shard reuses no flit in the
// cycle it was released in, whichever worker released it first. What
// the schedules used to disagree on is where a parked device's
// returning credits stood: on the wire, or in its counter (DESIGN.md
// §13).
func TestSnapshotBytesIgnoreSchedule(t *testing.T) {
	type run struct {
		name   string
		cfg    platform.Config
		cycles uint64
	}
	paper := paperSnapConfig(t, 5)
	runs := []run{{"paper", paper, 600}}
	for _, topo := range []string{"mesh:w=4,h=4", "mesh:w=8,h=8", "butterfly:w=4,h=4", "torus:w=4,h=4,minimal=1,vcs=2", "fattree:k=4"} {
		spec, err := topology.ParseSpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, inj := range []float64{0.02, 0.05, 0.30} {
			cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: inj})
			if err != nil {
				t.Fatal(err)
			}
			for _, cycles := range []uint64{1237, 3001} {
				runs = append(runs, run{fmt.Sprintf("%s@%.2f/%d", topo, inj, cycles), cfg, cycles})
			}
		}
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			snap := func(workers int, noGate bool) []state.Section {
				p := buildSnap(t, r.cfg, workers, noGate, nil)
				defer p.Close()
				p.RunCycles(r.cycles / 3)
				p.RunCycles(r.cycles - r.cycles/3)
				b, err := p.SnapshotBytes()
				if err != nil {
					t.Fatal(err)
				}
				_, sections, err := state.ReadSnapshot(bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				return sections
			}
			want := snap(0, true)
			for _, v := range []struct {
				workers int
				noGate  bool
			}{{0, false}, {2, false}, {2, true}} {
				got := snap(v.workers, v.noGate)
				if len(got) != len(want) {
					t.Fatalf("workers=%d noGate=%v: %d sections, the ungated sequential kernel writes %d", v.workers, v.noGate, len(got), len(want))
				}
				var differ []string
				for i := range want {
					if !bytes.Equal(got[i].Body, want[i].Body) {
						differ = append(differ, want[i].Name)
					}
				}
				if len(differ) > 0 {
					t.Errorf("workers=%d noGate=%v: sections %v differ from the ungated sequential kernel's", v.workers, v.noGate, differ)
				}
			}
		})
	}
}

// TestSnapshotBytesIgnoreScheduleHeldFlit: the wake a gated consumer gets
// from the commit that delivers its flit, with nothing else in the
// network to wake it by accident. Every generator sends two packets and
// falls silent; a stuck fault holds a flit on one inter-switch wire from
// cycle 0 until long after the rest has drained. Mid-hold and after the
// fault has cleared and the packet behind it has been ejected, the gated
// sequential kernel agrees with the ungated one on every snapshot byte,
// and on the monitor and the trace, eject cycles included.
func TestSnapshotBytesIgnoreScheduleHeldFlit(t *testing.T) {
	const midHold, until, end = 1_500, 4_000, 4_500
	cfg, err := platform.NetConfig(platform.NetOptions{
		Topo:      topology.Spec{Kind: "mesh", Param: map[string]int{"w": 3, "h": 3}},
		Injection: 0.3, PacketsPerTG: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &probe.Config{}
	// The wire to hold: the first one the unfaulted run sends a flit over.
	held := -1
	scout := buildSnap(t, cfg, 0, true, nil)
	scout.RunCycles(midHold)
	for i := 0; held < 0; i++ {
		l, ok := scout.Link(i)
		if !ok {
			t.Fatal("the unfaulted run sent no flit over any inter-switch wire")
		}
		if l.Flits() > 0 {
			held = i
		}
	}
	scout.Close()
	type result struct {
		mid, end []byte
		out      runOutput
	}
	run := func(noGate bool) (r result) {
		p := buildSnap(t, cfg, 0, noGate, []fault.Spec{{Link: held, Mode: link.FaultStuck, From: 0, Until: until}})
		defer p.Close()
		moved := func() (n uint64) {
			for i := 0; ; i++ {
				l, ok := p.Link(i)
				if !ok {
					return n
				}
				n += l.Flits()
			}
		}
		p.RunCycles(midHold)
		if r.mid, err = p.SnapshotBytes(); err != nil {
			t.Fatal(err)
		}
		before := moved()
		p.RunCycles(until - midHold)
		l, _ := p.Link(held)
		if got := moved(); got != before || l.HeldCycles() < until-midHold {
			t.Fatalf("noGate=%v: %d flits crossed wires in cycles [%d, %d) and wire %d held one for %d cycles, want a network at rest but for the held flit",
				noGate, got-before, midHold, until, held, l.HeldCycles())
		}
		p.RunCycles(end - until)
		if !p.Drained() || l.Flits() == 0 {
			t.Fatalf("noGate=%v: drained = %v with %d flits over the held wire, want the packet delivered after the fault cleared", noGate, p.Drained(), l.Flits())
		}
		if r.end, err = p.SnapshotBytes(); err != nil {
			t.Fatal(err)
		}
		r.out = capture(t, p)
		return r
	}
	want, got := run(true), run(false)
	if !bytes.Equal(got.mid, want.mid) {
		t.Errorf("mid-hold snapshots differ between the gated and the ungated kernel")
	}
	if !bytes.Equal(got.end, want.end) {
		t.Errorf("final snapshots differ between the gated and the ungated kernel")
	}
	if !got.out.equal(want.out) {
		t.Errorf("gated output diverged: %s", got.out.diff(want.out))
	}
}

// TestForkMatchesColdRunsZoo extends the fork determinism property to
// the workload zoo: every fork must byte-match a cold-built twin that
// replays the warm-up and reseeds at the same cycle. "flows" draws
// from its TGs' LFSRs every packet (heavy-tailed sizes, jittered
// gaps), so its forks must additionally diverge from each other;
// "incast" is deterministic by construction (fixed lengths,
// round-robin victims, synchronized epochs — no LFSR draws), so its
// forks are legitimately identical and only the cold-twin match is
// asserted.
func TestForkMatchesColdRunsZoo(t *testing.T) {
	for _, tc := range []struct{ topo, workload string }{
		{"mesh:w=3,h=3", "flows"},
		{"mesh:w=3,h=3", "incast"},
		{"torus:w=4,h=4,minimal=1,vcs=2", "flows"}, // per-lane state through the fork
	} {
		workload := tc.workload
		t.Run(tc.topo+"/"+workload, func(t *testing.T) {
			spec, err := topology.ParseSpec(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := platform.NetConfig(platform.NetOptions{
				Topo:      spec,
				Workload:  workload,
				Injection: 0.2,
			})
			if err != nil {
				t.Fatal(err)
			}
			const warm, tail = 1_200, 1_200
			const nForks = 3

			src, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			src.RunCycles(warm)
			seed := src.Config().Seed

			forks, err := src.Fork(nForks)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, f := range forks {
					f.Close()
				}
			}()
			outs := make([]runOutput, nForks)
			for i, f := range forks {
				f.RunCycles(tail)
				outs[i] = capture(t, f)
			}

			for i := 0; i < nForks; i++ {
				cold, err := platform.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cold.RunCycles(warm)
				if i > 0 {
					for _, tg := range cold.TGs() {
						tg.Reseed(platform.ForkSeed(seed, uint16(tg.Injector().Endpoint()), i))
					}
				}
				cold.RunCycles(tail)
				want := capture(t, cold)
				cold.Close()
				if !outs[i].equal(want) {
					t.Errorf("%s fork %d diverged from its cold-run reference: %s",
						workload, i, outs[i].diff(want))
				}
			}
			if workload == "flows" {
				for i := 1; i < nForks; i++ {
					if bytes.Equal(outs[i].json, outs[0].json) {
						t.Errorf("%s fork %d identical to fork 0; reseeding had no effect", workload, i)
					}
				}
			}
		})
	}
}
