package platform_test

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/topology"
)

// The default kernel on a busy network: the gates of a 16×16 mesh at
// 0.30 stand down at cycle 64, up at 320, down at 384 until 896, up
// again until 960 and down until 1984 (engine/duty.go), and every
// stretch walks on a pool where the host has a second processor. The
// tests below hold that walk to the plain one and to an explicit pool.

// busyMesh is the 16×16 mesh at 0.30.
func busyMesh(t *testing.T) platform.Config {
	return busyMeshStop(t, 0)
}

// busyMeshStop is busyMesh with every generator bounded to packets
// packets and every receptor done at its first, so that a RunUntil
// stops once the generators have sent theirs; 0 leaves them unbounded.
// Bounded to 40, the mesh stops at cycle 1 555, inside the stretch
// 960–1983.
func busyMeshStop(t *testing.T, packets uint64) platform.Config {
	t.Helper()
	spec, err := topology.ParseSpec("mesh:w=16,h=16")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := platform.NetConfig(platform.NetOptions{Topo: spec, Injection: 0.30, Seed: 5, PacketsPerTG: packets})
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

// standDownKernels are the walks the default one is held to.
var standDownKernels = []struct {
	name    string
	workers int
	noGate  bool
}{{"default", 0, false}, {"plain", 0, true}, {"workers=2", 2, false}}

// checkPooled asserts that the default kernel walked on a pool exactly
// where the host lets it: never on one processor.
func checkPooled(t *testing.T, p *platform.Platform) {
	t.Helper()
	if pooled := p.Engine().PooledCycles() > 0; pooled != (runtime.GOMAXPROCS(0) > 1) {
		t.Errorf("walked on a pool: %v, at GOMAXPROCS %d", pooled, runtime.GOMAXPROCS(0))
	}
}

// TestStandDownPoolBitIdentical: with a fault campaign and a watchdog
// (a SerialTicker) on the busy mesh, the default kernel, the plain walk
// and two workers agree on every snapshot byte at every 64-cycle
// boundary through two stand-downs and the stand-up between them; and a
// RunUntil whose Stoppers are done inside the third stretch stops all
// three on one cycle, with one snapshot.
func TestStandDownPoolBitIdentical(t *testing.T) {
	build := func(t *testing.T, cfg platform.Config, workers int, noGate bool) *platform.Platform {
		t.Helper()
		p := buildSnap(t, cfg, workers, noGate, []fault.Spec{
			{Link: 0, Mode: link.FaultStuck, From: 300, Until: 700},
			{Link: 1, Mode: link.FaultCorrupt, From: 200, Until: 1000},
		})
		if _, err := p.AttachWatchdog(500); err != nil {
			t.Fatal(err)
		}
		return p
	}
	snap := func(t *testing.T, p *platform.Platform) []byte {
		t.Helper()
		b, err := p.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("boundaries", func(t *testing.T) {
		const chunk, end = 64, 1088
		var want [][]byte
		for _, k := range standDownKernels {
			p := build(t, busyMesh(t), k.workers, k.noGate)
			var got [][]byte
			var downs []bool
			for c := 0; c < end; c += chunk {
				p.RunCycles(chunk)
				got = append(got, snap(t, p))
				downs = append(downs, p.Engine().StandingDown())
			}
			if k.name == "default" {
				want = got
				checkPooled(t, p)
				if !downs[3] || downs[5] || !downs[6] || downs[14] {
					t.Errorf("standing down at the 64-cycle boundaries: %v; want down through 319, up at 320–383, down from 384, up at 896–959", downs)
				}
			}
			p.Close()
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s: snapshot at cycle %d differs from the default kernel's", k.name, (i+1)*chunk)
				}
			}
		}
	})

	t.Run("stop-inside-stretch", func(t *testing.T) {
		cfg := busyMeshStop(t, 40)
		type result struct {
			executed, cycle uint64
			stopped         bool
			snap            []byte
		}
		var want result
		for _, k := range standDownKernels {
			p := build(t, cfg, k.workers, k.noGate)
			executed, stopped := p.Run(100_000)
			got := result{executed, p.Engine().Cycle(), stopped, snap(t, p)}
			if k.name == "default" {
				want = got
				checkPooled(t, p)
				if !stopped || !p.Engine().StandingDown() {
					t.Errorf("stopped %v at cycle %d, standing down %v; want a stop inside the stretch 960–1983", stopped, got.cycle, p.Engine().StandingDown())
				}
			}
			p.Close()
			if got.executed != want.executed || got.cycle != want.cycle || got.stopped != want.stopped {
				t.Errorf("%s: %d cycles to cycle %d, stopped %v; the default kernel %d to %d, %v", k.name, got.executed, got.cycle, got.stopped, want.executed, want.cycle, want.stopped)
			}
			if !bytes.Equal(got.snap, want.snap) {
				t.Errorf("%s: the snapshot at the stop differs from the default kernel's", k.name)
			}
		}
	})
}

// TestStandDownPoolTraced runs the busy mesh with the probe collector
// attached through a pooled stretch: every probe emission calls the
// collector's Armer and every ejection the flit pool's return ramp, from
// whichever worker ticks the emitter, so `make race` checks both. The
// exported trace is the plain walk's, byte for byte.
func TestStandDownPoolTraced(t *testing.T) {
	var want [sha256.Size]byte
	for i, noGate := range []bool{true, false} {
		cfg := busyMesh(t)
		cfg.Trace = &probe.Config{}
		cfg.NoGate = noGate
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(200)
		var buf bytes.Buffer
		if err := p.Probe().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		got := sha256.Sum256(buf.Bytes())
		if i == 0 {
			want = got
			continue
		}
		checkPooled(t, p)
		if got != want {
			t.Error("the default kernel's trace differs from the plain walk's")
		}
	}
}

// TestStandDownPoolLifecycle: a platform without workers holds no
// goroutine between runs — after RunCycles, and after a RunUntil that
// its Stopper ends inside a pooled stretch — so it needs no Close. Two
// such platforms standing down at once share the helper budget: their
// goroutines beside the test's never outnumber GOMAXPROCS−1.
func TestStandDownPoolLifecycle(t *testing.T) {
	settled := func(t *testing.T, want int) {
		t.Helper()
		// A goroutine a pool has waited for — or an earlier test's — may
		// still be on its way out.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, want %d at most", runtime.NumGoroutine(), want)
			}
		}
	}
	t.Run("between-runs", func(t *testing.T) {
		cfg := busyMeshStop(t, 40)
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		p.RunCycles(200)
		settled(t, before)
		if _, stopped := p.Run(100_000); !stopped || !p.Engine().StandingDown() {
			t.Fatalf("stopped %v at cycle %d, standing down %v; want a stop inside a stretch", stopped, p.Engine().Cycle(), p.Engine().StandingDown())
		}
		settled(t, before)
		checkPooled(t, p)
	})
	t.Run("two-at-once", func(t *testing.T) {
		var ps [2]*platform.Platform
		for i := range ps {
			var err error
			if ps[i], err = platform.Build(busyMesh(t)); err != nil {
				t.Fatal(err)
			}
		}
		base := runtime.NumGoroutine()
		var peak atomic.Int64
		done := make(chan struct{})
		sampled := make(chan struct{})
		go func() { // one more goroutine beside the test's
			defer close(sampled)
			for {
				select {
				case <-done:
					return
				default:
				}
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for _, p := range ps {
			wg.Add(1)
			go func() { // and one per platform
				defer wg.Done()
				for range 10 {
					p.RunCycles(100)
				}
			}()
		}
		wg.Wait()
		close(done)
		<-sampled
		if helpers := peak.Load() - int64(base) - 3; helpers > int64(runtime.GOMAXPROCS(0)-1) {
			t.Errorf("%d helper goroutines at once, budget %d", helpers, runtime.GOMAXPROCS(0)-1)
		}
		if a, b := ps[0].Engine().PooledCycles(), ps[1].Engine().PooledCycles(); (a+b > 0) != (runtime.GOMAXPROCS(0) > 1) {
			t.Errorf("cycles walked on a pool %d and %d at GOMAXPROCS %d", a, b, runtime.GOMAXPROCS(0))
		}
		settled(t, base)
	})
}
