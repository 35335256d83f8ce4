// Benchmarks regenerating the paper's tables and figures. One benchmark
// per artifact (see DESIGN.md's per-experiment index), plus ablation
// benches for the design decisions the paper's speed argument rests on.
//
// Custom metrics: the Table-2 benches report emulated cycles per second
// ("cycles/s"), which is the paper's headline number. Gating, scale and
// dispatch rows are the repository benchmark's (go run ./bench), not
// this file's.
package nocemu_test

import (
	"testing"

	"nocemu/internal/arb"
	"nocemu/internal/experiments"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/resource"
	"nocemu/internal/rtl"
	"nocemu/internal/tlm"
)

// BenchmarkTable1Resources regenerates the slide-17 synthesis table:
// per-device slice estimates for the paper's mixed 4 TG / 4 TR /
// 6-switch platform.
func BenchmarkTable1Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalSlices == 0 {
			b.Fatal("empty estimate")
		}
	}
}

// benchCycles runs the reference platform for a fixed number of cycles
// per iteration and reports emulated cycles/second.
func benchCycles(b *testing.B, cycles uint64, run func(b *testing.B) func(uint64)) {
	b.Helper()
	step := run(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(cycles)
	}
	b.StopTimer()
	total := float64(cycles) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkTable2Emulator measures the fast two-phase engine — the top
// row of the slide-18 speed table.
func BenchmarkTable2Emulator(b *testing.B) {
	benchCycles(b, 50_000, func(b *testing.B) func(uint64) {
		cfg, err := platform.PaperConfig(platform.PaperOptions{})
		if err != nil {
			b.Fatal(err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return p.RunCycles
	})
}

// BenchmarkTable2EmulatorTracing quantifies the event-tracing overhead
// (DESIGN.md §11): the reference platform with the probe subsystem
// enabled, events buffered in the per-producer rings and tallied into
// the window metrics but never exported. Compare the cycles/s metric
// against BenchmarkTable2Emulator for the enabled-mode cost; the
// disabled-mode cost is zero by construction (nil-probe hooks) and is
// guarded by TestTraceOffZeroAlloc.
func BenchmarkTable2EmulatorTracing(b *testing.B) {
	benchCycles(b, 50_000, func(b *testing.B) func(uint64) {
		cfg, err := platform.PaperConfig(platform.PaperOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Trace = &probe.Config{}
		p, err := platform.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return p.RunCycles
	})
}

// BenchmarkTable2SystemCLike measures the dynamic event-calendar
// scheduler over the same components — the middle row.
func BenchmarkTable2SystemCLike(b *testing.B) {
	benchCycles(b, 10_000, func(b *testing.B) func(uint64) {
		cfg, err := platform.PaperConfig(platform.PaperOptions{})
		if err != nil {
			b.Fatal(err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := tlm.New(p.Engine())
		if err != nil {
			b.Fatal(err)
		}
		return func(n uint64) { sim.Run(n) }
	})
}

// BenchmarkTable2RTLLike measures the signal-level event-driven kernel
// — the bottom row.
func BenchmarkTable2RTLLike(b *testing.B) {
	benchCycles(b, 5_000, func(b *testing.B) func(uint64) {
		cfg, err := platform.PaperConfig(platform.PaperOptions{})
		if err != nil {
			b.Fatal(err)
		}
		p, err := rtl.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return p.RunCycles
	})
}

// BenchmarkFigure1LinkLoad regenerates the slide-19 setup check: the
// steady-state load of the two hot links under 4x45% traffic.
func BenchmarkFigure1LinkLoad(b *testing.B) {
	var lastLoad float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(1_000, 20_000)
		if err != nil {
			b.Fatal(err)
		}
		lastLoad = res.HotLoads[0]
	}
	b.ReportMetric(lastLoad*100, "hotlink-%")
}

// BenchmarkFigure2RunTime regenerates one point of the slide-20 curves:
// emulated run time for a fixed packet count, uniform vs burst.
func BenchmarkFigure2RunTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2([]uint64{400})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Uniform.Points) == 0 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkFigure3Congestion regenerates one point of the slide-21
// congestion curves (trace-driven devices).
func BenchmarkFigure3Congestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3([]int{8}, []int{4}, 128)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Curves) != 1 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkFigure4Latency regenerates one point of the slide-22 latency
// curve.
func BenchmarkFigure4Latency(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4([]int{16}, 4, 128)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MaxLatency
	}
	b.ReportMetric(last, "latency-cycles")
}

// BenchmarkAblationBufferDepth sweeps the switch buffer size — the
// third switch parameter of the paper — and reports the emulation speed
// at each depth (deeper buffers cost area, not simulation speed).
func BenchmarkAblationBufferDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16, 32} {
		depth := depth
		b.Run(string(rune('0'+depth/10))+string(rune('0'+depth%10)), func(b *testing.B) {
			benchCycles(b, 20_000, func(b *testing.B) func(uint64) {
				cfg, err := platform.PaperConfig(platform.PaperOptions{BufDepth: depth})
				if err != nil {
					b.Fatal(err)
				}
				p, err := platform.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				return p.RunCycles
			})
		})
	}
}

// BenchmarkAblationMultipath compares single-path (the 90%-hot-link
// setup) against packet-modulo multipath routing; the reported metric
// is the hot link's load, which multipath roughly halves.
func BenchmarkAblationMultipath(b *testing.B) {
	for _, mode := range []struct {
		name   string
		spread bool
	}{{"pinned", false}, {"modulo", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var load float64
			for i := 0; i < b.N; i++ {
				cfg, err := platform.PaperConfig(platform.PaperOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if mode.spread {
					cfg.Select = "packet-modulo"
					cfg.Overrides = nil
				}
				p, err := platform.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p.RunCycles(2_000)
				p.ResetStats()
				p.RunCycles(20_000)
				hotA, _, err := p.PaperHotLinks()
				if err != nil {
					b.Fatal(err)
				}
				load = p.LinkLoads()[hotA]
			}
			b.ReportMetric(load*100, "hotlink-%")
		})
	}
}

// BenchmarkAblationResourceModel exercises the area model across switch
// shapes (it is pure arithmetic; this guards against regressions making
// synthesis estimation a bottleneck of the flow).
func BenchmarkAblationResourceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for in := 2; in <= 8; in++ {
			for out := 2; out <= 8; out++ {
				if resource.EstimateSwitch(in, out, 8) <= 0 {
					b.Fatal("bad estimate")
				}
			}
		}
	}
}

// BenchmarkExtensionScale measures one mesh size of the scaling study
// (the paper-conclusion extension: larger NoCs on larger FPGAs).
func BenchmarkExtensionScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scale([]int{4}, 5_000)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Rows[0].FitsOK && res.Rows[0].Slices < 44096 {
			b.Fatal("fit computation broken")
		}
	}
}

// BenchmarkExtensionSaturation measures one point of the load/latency
// saturation curve.
func BenchmarkExtensionSaturation(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Saturation([]float64{0.45}, 20_000)
		if err != nil {
			b.Fatal(err)
		}
		lat, _ = res.Latency.YAt(0.45)
	}
	b.ReportMetric(lat, "latency-cycles")
}

// BenchmarkAblationArbitration compares output arbitration policies on
// the contended reference platform, reporting delivered throughput.
func BenchmarkAblationArbitration(b *testing.B) {
	for _, pol := range []string{"round-robin", "fixed", "lrg"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var flitsPerCycle float64
			for i := 0; i < b.N; i++ {
				cfg, err := platform.PaperConfig(platform.PaperOptions{})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Arb = arb.Policy(pol)
				p, err := platform.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p.RunCycles(2_000)
				p.ResetStats()
				const window = 20_000
				p.RunCycles(window)
				flitsPerCycle = float64(p.Totals().FlitsReceived) / window
			}
			b.ReportMetric(flitsPerCycle, "flits/cycle")
		})
	}
}

// BenchmarkExtensionVCStudy runs one packet length of the wormhole vs
// dateline comparison on the torus rings (16 sources).
func BenchmarkExtensionVCStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.VCStudy([]uint16{8}, 8, 20_000)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].DatelineDelivered != 16*8 {
			b.Fatal("dateline study broken")
		}
	}
}
