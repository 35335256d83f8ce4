package serve

import (
	"bytes"
	"fmt"
	"testing"

	"nocemu/internal/jsonio"
)

// TestDeterminismMatrix pins the core service guarantee: the response
// transcript of a scripted session is byte-identical across every
// execution shape — server dispatch worker caps, platform kernels
// (sequential and parallel), quiescence gating on and off, and
// warm-forked versus cold-built session starts. Only the session's
// request stream may influence its answers.
func TestDeterminismMatrix(t *testing.T) {
	type shape struct {
		name        string
		dispatchCap int
		platWorkers int
		noGate      bool
	}
	shapes := []shape{
		{"serial/seq/gated", 0, 0, false},
		{"serial/seq/ungated", 0, 0, true},
		{"serial/par4/gated", 0, 4, false},
		{"serial/par4/ungated", 0, 4, true},
		{"workers4/seq/gated", 4, 0, false},
		{"workers4/par4/gated", 4, 4, false},
	}
	var base []byte
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			m := NewManager(Options{Workers: sh.dispatchCap})
			defer m.Shutdown()
			sp := loadedPlatform(sh.platWorkers, sh.noGate, 64)
			got := runScript(m, sessionScript("det", sp, 1))
			if base == nil {
				base = got
				for _, r := range decodeLines(t, got) {
					if !r.OK {
						t.Fatalf("baseline request failed: %s", r.Err)
					}
				}
				return
			}
			if !bytes.Equal(got, base) {
				t.Errorf("transcript differs from baseline:\ngot:  %s\nbase: %s", got, base)
			}
		})
	}
}

// TestWarmColdStartsMatch runs the same session twice on one manager:
// the first open pays the warm-up and caches the snapshot, the second
// restores it. Both transcripts must be byte-identical, and the
// second must actually have hit the cache.
func TestWarmColdStartsMatch(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	sp := loadedPlatform(0, false, 128)
	cold := runScript(m, sessionScript("wc", sp, 2))
	hitsAfterCold := m.Stats().WarmHits
	warm := runScript(m, sessionScript("wc", sp, 2))
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm transcript differs from cold:\nwarm: %s\ncold: %s", warm, cold)
	}
	if hits := m.Stats().WarmHits; hits <= hitsAfterCold {
		t.Errorf("second open did not hit the warm cache (hits %d -> %d)", hitsAfterCold, hits)
	}
	for _, r := range decodeLines(t, cold) {
		if !r.OK {
			t.Fatalf("request failed: %s", r.Err)
		}
	}
}

// TestWarmSnapshotSharedAcrossKernels: the warm-snapshot key names the
// state, not the kernel — snapshots restore into any — so opens that
// differ only in workers/no_gate share the first one's warm-up.
func TestWarmSnapshotSharedAcrossKernels(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	base := runScript(m, sessionScript("k", loadedPlatform(0, false, 128), 2))
	for _, k := range []struct {
		workers int
		noGate  bool
	}{{4, false}, {0, true}} {
		hits := m.Stats().WarmHits
		got := runScript(m, sessionScript("k", loadedPlatform(k.workers, k.noGate, 128), 2))
		if !bytes.Equal(got, base) {
			t.Errorf("workers=%d no_gate=%v: transcript differs from the sequential gated one", k.workers, k.noGate)
		}
		if after := m.Stats().WarmHits; after != hits+1 {
			t.Errorf("workers=%d no_gate=%v: warm hits %d -> %d, want one more", k.workers, k.noGate, hits, after)
		}
	}
}

// TestShorthandIsItsInlineConfig: the topo/workload shorthand and the
// inline config it stands for, written out by hand, are one platform —
// the same transcript across open/xfer/stats/park/resume, and the
// inline open restores the shorthand's warm snapshot.
func TestShorthandIsItsInlineConfig(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	short := runScript(m, sessionScript("eq", loadedPlatform(0, false, 128), 2))
	open, err := jsonio.DecodeServeRequest([]byte(`{"v":1,"op":"open","sid":"eq","platform":{"config":` +
		`{"topology":{"kind":"mesh","params":{"w":2,"h":2}},` +
		`"workload":{"kind":"uniform","injection":0.05,"packet_len":2}},"warmup":128}}`))
	if err != nil {
		t.Fatal(err)
	}
	hits := m.Stats().WarmHits
	inline := runScript(m, sessionScript("eq", open.Platform, 2))
	if !bytes.Equal(inline, short) {
		t.Errorf("inline config transcript differs from the shorthand's:\ninline: %s\nshort:  %s", inline, short)
	}
	if after := m.Stats().WarmHits; after != hits+1 {
		t.Errorf("inline open: warm hits %d -> %d, want a hit on the shorthand's snapshot", hits, after)
	}
	for _, r := range decodeLines(t, short) {
		if !r.OK {
			t.Fatalf("request failed: %s", r.Err)
		}
	}
}

// TestParkResumeAcrossRestart splits the canonical script at its park
// boundary: the first half runs on one manager which then shuts down
// (parking to disk), the second half on a fresh manager pointed at
// the same directories. The joined transcript must be byte-identical
// to an uninterrupted run of the full script.
func TestParkResumeAcrossRestart(t *testing.T) {
	parkDir := t.TempDir()
	cacheDir := t.TempDir()
	sp := loadedPlatform(0, false, 32)
	script := sessionScript("restart", sp, 3)
	// The canonical script parks at index 6 and resumes at 7.
	if script[6].Op != jsonio.OpPark || script[7].Op != jsonio.OpResume {
		t.Fatalf("script shape changed; park/resume not at 6/7")
	}
	head, tail := script[:7], script[7:]

	uninterrupted := NewManager(Options{ParkDir: t.TempDir(), CacheDir: t.TempDir()})
	want := runScript(uninterrupted, script)
	if err := uninterrupted.Shutdown(); err != nil {
		t.Fatalf("uninterrupted shutdown: %v", err)
	}
	for _, r := range decodeLines(t, want) {
		if !r.OK {
			t.Fatalf("uninterrupted request failed: %s", r.Err)
		}
	}

	m1 := NewManager(Options{ParkDir: parkDir, CacheDir: cacheDir})
	got := runScript(m1, head)
	if err := m1.Shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	m2 := NewManager(Options{ParkDir: parkDir, CacheDir: cacheDir})
	got = append(got, runScript(m2, tail)...)
	if err := m2.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restarted transcript differs:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestShutdownParksLiveSessions pins the graceful-drain contract: a
// session still open at shutdown is parked to the park directory and
// resumable by the next server, continuing at its exact cycle.
func TestShutdownParksLiveSessions(t *testing.T) {
	parkDir := t.TempDir()
	m1 := NewManager(Options{ParkDir: parkDir})
	open := req(1, jsonio.OpOpen, "drain")
	open.Platform = testPlatform(0, false, 0)
	if r := m1.Dispatch(open); !r.OK {
		t.Fatalf("open: %s", r.Err)
	}
	step := req(2, jsonio.OpStep, "drain")
	step.Cycles = 77
	if r := m1.Dispatch(step); !r.OK || r.Cycle != 77 {
		t.Fatalf("step: %+v", r)
	}
	if err := m1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	m2 := NewManager(Options{ParkDir: parkDir})
	defer m2.Shutdown()
	r := m2.Dispatch(req(3, jsonio.OpResume, "drain"))
	if !r.OK {
		t.Fatalf("resume after restart: %s", r.Err)
	}
	if r.Cycle != 77 {
		t.Fatalf("resumed at cycle %d, want 77", r.Cycle)
	}
	if r := m2.Dispatch(req(4, jsonio.OpClose, "drain")); !r.OK {
		t.Fatalf("close: %s", r.Err)
	}
}

// TestLRUEviction checks the session cap: opening past MaxSessions
// parks the least recently used session, which stays resumable.
func TestLRUEviction(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2})
	defer m.Shutdown()
	for i := 0; i < 3; i++ {
		open := req(uint64(i), jsonio.OpOpen, fmt.Sprintf("lru-%d", i))
		open.Platform = testPlatform(0, false, 0)
		if r := m.Dispatch(open); !r.OK {
			t.Fatalf("open %d: %s", i, r.Err)
		}
	}
	st := m.Stats()
	if st.LiveSessions != 2 || st.ParkedSessions != 1 || st.Evicted != 1 {
		t.Fatalf("after 3 opens with cap 2: %+v", st)
	}
	// lru-0 was the oldest; it must be the parked one, and resumable
	// (which in turn evicts the next-oldest, lru-1).
	if r := m.Dispatch(req(10, jsonio.OpResume, "lru-0")); !r.OK {
		t.Fatalf("resume evicted: %s", r.Err)
	}
	st = m.Stats()
	if st.LiveSessions != 2 || st.ParkedSessions != 1 || st.Evicted != 2 {
		t.Fatalf("after resume: %+v", st)
	}
	if r := m.Dispatch(req(11, jsonio.OpResume, "lru-1")); !r.OK {
		t.Fatalf("resume second evicted: %s", r.Err)
	}
}
