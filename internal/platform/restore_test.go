package platform_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/state"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// restoreKernels are the kernels a restore over a dirty platform must
// serve alike. On crews, the engine package's TestRestoreOverDirtyPlatform
// serves them too.
var restoreKernels = []struct {
	name   string
	noGate bool
}{
	{"default", false},
	{"NoGate", true},
}

// servedConfig is the serve shape: a mesh whose sources are scriptable
// over a uniform background and whose sinks are trace-driven analyzers
// tracking last latencies.
func servedConfig(t testing.TB, w, h int) platform.Config {
	t.Helper()
	cfg, err := platform.NetConfig(platform.NetOptions{
		Topo:      topology.Spec{Kind: "mesh", Param: map[string]int{"w": w, "h": h}},
		Injection: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	scriptable(cfg)
	for i := range cfg.TRs {
		cfg.TRs[i].Mode = receptor.TraceDriven
		cfg.TRs[i].TrackLast = true
	}
	return cfg
}

// scriptable makes every source of cfg accept scripted packets.
func scriptable(cfg platform.Config) {
	for i := range cfg.TGs {
		cfg.TGs[i].Scripted = true
	}
}

// dirtyPlatforms are the platforms a restore over a dirty platform is
// checked on: the paper platform, the serve shape, a two-lane torus, and
// the traced paper platform under a stuck and a corrupt fault window.
func dirtyPlatforms(t *testing.T) []struct {
	name   string
	cfg    platform.Config
	faults []fault.Spec
} {
	paper, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scriptable(paper)
	torus := torusSnapConfig(t, 2, 0)
	scriptable(torus)
	traced := paperSnapConfig(t, 0)
	scriptable(traced)
	return []struct {
		name   string
		cfg    platform.Config
		faults []fault.Spec
	}{
		{"paper", paper, nil},
		{"mesh4x4-served", servedConfig(t, 4, 4), nil},
		{"torus4x4-vcs2", torus, nil},
		{"paper-faulted-traced", traced, []fault.Spec{
			{Link: 0, Mode: link.FaultStuck, From: 350, Until: 1200},
			{Link: 3, Mode: link.FaultCorrupt, From: 100, Until: 3000},
		}},
	}
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

// TestRestoreOverDirtyPlatform is the serve path's restore: into a
// platform that has run far past the snapshot, with more flows and
// packets in flight than it holds. The restored platform must re-save
// the snapshot's bytes, and run on to the monitor JSON (and trace) of a
// fresh build restored from the same snapshot, under every kernel.
func TestRestoreOverDirtyPlatform(t *testing.T) {
	const at, past, more = 500, 2500, 700
	for _, pc := range dirtyPlatforms(t) {
		for _, k := range restoreKernels {
			t.Run(pc.name+"/"+k.name, func(t *testing.T) {
				p := buildSnap(t, pc.cfg, k.noGate, pc.faults)
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
				got := capture(t, p)

				fresh := buildSnap(t, pc.cfg, k.noGate, pc.faults)
				if err := fresh.RestoreBytes(snap); err != nil {
					t.Fatal(err)
				}
				fresh.RunCycles(more)
				if want := capture(t, fresh); !got.equal(want) {
					t.Errorf("restored over a dirty platform, then %d cycles: %s", more, got.diff(want))
				}
			})
		}
	}
}

// TestRestoreAllocsFlatInPlatformSize pins the in-place restore: a second
// restore of one snapshot into the platform that took the first reuses
// what the first left — flits, flow rows, maps, rings — so what it
// allocates does not grow with the platform, from a 4x4 to a 16x16 mesh.
func TestRestoreAllocsFlatInPlatformSize(t *testing.T) {
	allocs := func(w int) float64 {
		p, err := platform.Build(servedConfig(t, w, w))
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(300)
		snap, err := p.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if live := p.Pool().Live(); live == 0 {
			t.Fatalf("%dx%d: no flit in flight at the snapshot", w, w)
		}
		p.RunCycles(100)
		if err := p.RestoreBytes(snap); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := p.RestoreBytes(snap); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(16)
	t.Logf("allocations per restore: %v on 4x4, %v on 16x16", small, large)
	if large > small {
		t.Errorf("a repeated restore allocates %v times on a 16x16 mesh, %v on 4x4", large, small)
	}
}

// fuzzBase is one platform FuzzPlatformRestore restores into, and the
// snapshot of its shape that the fuzzer mutates.
type fuzzBase struct {
	cfg    platform.Config
	faults []fault.Spec
	snap   []byte
}

// fuzzBases are the golden paper fixture, its PR 19 bytes, a two-lane
// torus mid-run and a faulted, traced paper platform mid-window.
func fuzzBases(tb testing.TB) []fuzzBase {
	paper := paperSnapConfig(tb, 5)
	var bases []fuzzBase
	for _, name := range []string{"paper_cycle600.nocsnap", "paper_cycle600_gated_pr19.nocsnap"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		bases = append(bases, fuzzBase{cfg: paper, snap: b})
	}
	faults := []fault.Spec{
		{Link: 0, Mode: link.FaultStuck, From: 250, Until: 500},
		{Link: 3, Mode: link.FaultCorrupt, From: 100, Until: 900},
	}
	for _, b := range []fuzzBase{{cfg: torusSnapConfig(tb, 2, 40)}, {cfg: paper, faults: faults}} {
		p := buildSnap(tb, b.cfg, false, b.faults)
		p.RunCycles(300)
		b.snap, _ = p.SnapshotBytes()
		bases = append(bases, b)
	}
	return bases
}

// reframe rebuilds a snapshot with section sec's body spliced: cut bytes
// from offset off replaced by patch.
func reframe(tb testing.TB, snap []byte, sec, off int, cut uint8, patch []byte) []byte {
	f, err := state.ParseSnapshot(snap)
	if err != nil {
		tb.Fatal(err)
	}
	out := state.AppendHeader(nil, string(f.Platform), f.Count)
	for i := 0; i < f.Count; i++ {
		fr := f.Next()
		body := fr.Body
		if i == sec%f.Count {
			o := off % (len(body) + 1)
			end := min(o+int(cut%16), len(body))
			body = append(append(append([]byte(nil), body[:o]...), patch...), body[end:]...)
		}
		out = state.AppendSection(out, string(fr.Name), string(fr.Type), body)
	}
	return out
}

// FuzzPlatformRestore mutates one section body of a well-framed
// snapshot and restores it into a platform that has already run past
// it, the serve path's restore. The restore either fails, or leaves a
// platform that re-saves the bytes it was given and runs 200 cycles
// without a panic.
func FuzzPlatformRestore(f *testing.F) {
	bases := fuzzBases(f)
	for i, b := range bases {
		fr, _ := state.ParseSnapshot(b.snap)
		for sec := 0; sec < fr.Count; sec += 3 {
			f.Add(uint8(i), uint16(sec), uint32(0), uint8(0), []byte(nil))
		}
		f.Add(uint8(i), uint16(1), uint32(7), uint8(1), []byte{0x7f})
	}
	f.Fuzz(func(t *testing.T, base uint8, sec uint16, off uint32, cut uint8, patch []byte) {
		b := bases[int(base)%len(bases)]
		snap := reframe(t, b.snap, int(sec), int(off), cut, patch)
		p := buildSnap(t, b.cfg, false, b.faults)
		p.RunCycles(700)
		if err := p.RestoreBytes(snap); err != nil {
			return
		}
		if again, _ := p.SnapshotBytes(); !bytes.Equal(again, snap) {
			t.Fatalf("restored %d bytes, re-saved %d that differ", len(snap), len(again))
		}
		p.RunCycles(200)
	})
}
