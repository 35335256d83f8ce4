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
