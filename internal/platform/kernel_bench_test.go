package platform_test

import (
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

// BenchmarkKernelMatrix times one cycle of four platforms under the
// gated sequential walk ("seq") and under a two-worker pool ("w2"): the
// paper platform at its 0.45 load, a busy 16×16 mesh, a lightly loaded
// 32×32 mesh and a 16×16 flattened butterfly. Divide a platform's seq
// ns/op by its w2 ns/op for the pool's speed-up (EXPERIMENTS.md,
// "Kernel matrix"). Each run warms the platform up first, untimed.
func BenchmarkKernelMatrix(b *testing.B) {
	for _, c := range []struct {
		name, spec string // spec "" is the paper platform
		inj        float64
	}{
		{"paper045", "", 0.45},
		{"mesh256_030", "mesh:w=16,h=16", 0.30},
		{"mesh1024_002", "mesh:w=32,h=32", 0.02},
		{"bfly256_010", "butterfly:w=16,h=16", 0.10},
	} {
		for _, workers := range []int{0, 2} {
			name := c.name + "/seq"
			if workers > 0 {
				name = c.name + "/w2"
			}
			b.Run(name, func(b *testing.B) {
				var cfg platform.Config
				var err error
				if c.spec == "" {
					cfg, err = platform.PaperConfig(platform.PaperOptions{Load: c.inj})
				} else {
					var spec topology.Spec
					if spec, err = topology.ParseSpec(c.spec); err == nil {
						cfg, err = platform.NetConfig(platform.NetOptions{Topo: spec, Injection: c.inj, Seed: 7})
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				cfg.Workers = workers
				p, err := platform.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				p.RunCycles(2_000)
				b.ResetTimer()
				p.RunCycles(uint64(b.N))
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			})
		}
	}
}
