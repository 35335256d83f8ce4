package serve

import (
	"testing"

	"nocemu/internal/jsonio"
)

// BenchmarkXferDispatch times the oracle call in process: 64-byte
// transfers through Manager.Dispatch on the serve_xfer benchmark's
// session platform (a 4x4 mesh under 10% uniform load, warmed 20 000
// cycles), cycling over every source/sink pair. It reports the kernel
// cycles a transfer consumes beside the time.
func BenchmarkXferDispatch(b *testing.B) {
	m := NewManager(Options{})
	defer m.Shutdown()
	open := req(0, jsonio.OpOpen, "x")
	open.Platform = &jsonio.ServePlatform{
		Topo: "mesh:w=4,h=4", Workload: "uniform", Injection: 0.1,
		Seed: 1, WorkloadSeed: 1, Warmup: 20000,
	}
	first := m.Dispatch(open)
	if !first.OK {
		b.Fatal(first.Err)
	}
	const n = 16 // terminals: source i at endpoint i, sink j at n+j
	cycle := first.Cycle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (n * (n - 1))
		src := k / (n - 1)
		x := req(uint64(i+1), jsonio.OpXfer, "x")
		x.Src, x.Dst, x.Bytes = uint16(src), uint16(n+(src+1+k%(n-1))%n), 64
		r := m.Dispatch(x)
		if !r.OK || !r.Delivered {
			b.Fatalf("xfer %d: %+v", i, r)
		}
		cycle = r.Cycle
	}
	b.ReportMetric(float64(cycle-first.Cycle)/float64(b.N), "cycles/xfer")
}

// BenchmarkSessionChurn times one whole session lifecycle in process,
// the serve_churn benchmark's unit: open warm, xfer, park, resume,
// xfer, stats, close through Manager.Dispatch on the serve_xfer
// platform, with a park directory. A first session fills the platform
// pool and the warm-snapshot cache before the timer starts, so every
// timed open is a warm hit on a pooled platform.
func BenchmarkSessionChurn(b *testing.B) {
	m := NewManager(Options{ParkDir: b.TempDir()})
	defer m.Shutdown()
	sp := &jsonio.ServePlatform{
		Topo: "mesh:w=4,h=4", Workload: "uniform", Injection: 0.1,
		Seed: 1, WorkloadSeed: 1, Warmup: 20000,
	}
	const n = 16 // terminals: source i at endpoint i, sink j at n+j
	var id uint64
	step := func(op string) jsonio.ServeRequest {
		id++
		return req(id, op, "s")
	}
	xfer := func(i int) jsonio.ServeRequest {
		r := step(jsonio.OpXfer)
		k := (int(id) + i) % (n * (n - 1))
		src := k / (n - 1)
		r.Src, r.Dst, r.Bytes = uint16(src), uint16(n+(src+1+k%(n-1))%n), 64
		return r
	}
	lifecycle := func(i int) {
		open := step(jsonio.OpOpen)
		open.Platform = sp
		for _, r := range []jsonio.ServeRequest{
			open, xfer(i), step(jsonio.OpPark), step(jsonio.OpResume),
			xfer(i), step(jsonio.OpStats), step(jsonio.OpClose),
		} {
			if resp := m.Dispatch(r); !resp.OK {
				b.Fatalf("%s: %s", r.Op, resp.Err)
			}
		}
	}
	lifecycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle(i)
	}
}
