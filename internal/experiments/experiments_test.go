package experiments

import (
	"math"
	"strings"
	"testing"

	"nocemu/internal/arb"
	"nocemu/internal/platform"
	"nocemu/internal/routing"
	"nocemu/internal/stats"
)

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]Table1Row{}
	for _, r := range res.Rows {
		byKind[r.Kind] = r
	}
	for _, kind := range []string{"TG stochastic", "TG trace driven", "TR stochastic", "TR trace driven", "switch", "control module"} {
		if _, ok := byKind[kind]; !ok {
			t.Fatalf("missing kind %q", kind)
		}
	}
	// Calibrated kinds match the paper within 2 slices.
	for kind, row := range byKind {
		if row.PaperSlices == 0 {
			continue
		}
		d := row.Slices - row.PaperSlices
		if d < -2 || d > 2 {
			t.Errorf("%s: %d slices vs paper %d", kind, row.Slices, row.PaperSlices)
		}
	}
	// Platform total in the paper's ballpark and within the FPGA.
	if res.TotalSlices < 5500 || res.TotalSlices > 8500 {
		t.Errorf("total = %d", res.TotalSlices)
	}
	if res.TotalPct >= 100 {
		t.Errorf("platform does not fit: %.1f%%", res.TotalPct)
	}
	out := res.Table()
	for _, want := range []string{"TG stochastic", "719", "platform total", "7387"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2OrderingMatchesPaper(t *testing.T) {
	res, err := Table2(Table2Options{emuCycles: 60_000, tlmCycles: 20_000, rtlCycles: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	emu, tlmR, rtlR := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(emu.CyclesPerSec > tlmR.CyclesPerSec && tlmR.CyclesPerSec > rtlR.CyclesPerSec) {
		t.Errorf("speed ordering broken: %.3g %.3g %.3g",
			emu.CyclesPerSec, tlmR.CyclesPerSec, rtlR.CyclesPerSec)
	}
	overTLM, overRTL := res.Speedups()
	if overTLM < 1.5 {
		t.Errorf("emulator only %.2fx over SystemC-like", overTLM)
	}
	if overRTL < 5 {
		t.Errorf("emulator only %.2fx over RTL-like", overRTL)
	}
	if res.CyclesPerPacket < 2 || res.CyclesPerPacket > 50 {
		t.Errorf("cycles/packet = %v", res.CyclesPerPacket)
	}
	// Extrapolations are consistent: slower modes take longer.
	if !(emu.T16M < tlmR.T16M && tlmR.T16M < rtlR.T16M) {
		t.Error("extrapolated times out of order")
	}
	if out := res.Table(); !strings.Contains(out, "emulation") || !strings.Contains(out, "5e+07") && !strings.Contains(out, "5e+7") && !strings.Contains(out, "50") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestFigure1HotLinks(t *testing.T) {
	res, err := Figure1(4_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, load := range res.HotLoads {
		if load < 0.80 || load > 0.97 {
			t.Errorf("hot link %d load = %v, want ~0.90", i, load)
		}
	}
	if len(res.Loads) != 16 {
		t.Errorf("links = %d", len(res.Loads))
	}
	if out := res.Table(); !strings.Contains(out, "hot links") {
		t.Errorf("table malformed:\n%s", out)
	}
	// The setup's counterfactuals: spreading packets over both routes
	// halves the hot links, and no arbitration policy changes what a
	// link below saturation carries.
	for _, c := range []struct {
		sel  routing.Policy
		arb  arb.Policy
		want float64
	}{
		{routing.PacketModulo, arb.RoundRobin, 0.45},
		{routing.First, arb.FixedPriority, 0.90},
		{routing.First, arb.LeastRecentlyGranted, 0.90},
	} {
		cfg, err := platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperUniform})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Arb = c.arb
		if c.sel != routing.First {
			cfg.Select, cfg.Overrides = c.sel, nil
		}
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(4_000)
		p.ResetStats()
		p.RunCycles(60_000)
		hotA, hotB, err := p.PaperHotLinks()
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{p.LinkLoads()[hotA], p.LinkLoads()[hotB]} {
			if math.Abs(load-c.want) > 0.05 {
				t.Errorf("%s/%s: hot link load = %.3f, want ~%.2f", c.sel, c.arb, load, c.want)
			}
		}
	}
}

func TestFigure2BurstAboveUniform(t *testing.T) {
	res, err := Figure2([]uint64{400, 1_000, 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Uniform.Points) != 3 || len(res.Burst.Points) != 3 {
		t.Fatalf("points: %d / %d", len(res.Uniform.Points), len(res.Burst.Points))
	}
	// Both curves grow with packet count.
	u, b := res.Uniform.Sorted(), res.Burst.Sorted()
	for _, c := range [][]stats.Point{u.Points, b.Points} {
		for i := 1; i < len(c); i++ {
			if c[i].Y < c[i-1].Y {
				t.Errorf("run time not monotone in packets: %v", c)
			}
		}
	}
	// Burst run time exceeds uniform at every point (more congestion).
	for i := range u.Points {
		if b.Points[i].Y <= u.Points[i].Y {
			t.Errorf("at %v packets: burst %v <= uniform %v",
				u.Points[i].X, b.Points[i].Y, u.Points[i].Y)
		}
	}
	if out := res.Table(); !strings.Contains(out, "burst/uniform") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestFigure3CongestionGrowsWithBurstiness(t *testing.T) {
	res, err := Figure3([]int{1, 4, 16}, []int{2, 8}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		s := c.Series.Sorted()
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		if last <= first {
			t.Errorf("fpp=%d: congestion did not grow with burst size (%v -> %v)",
				c.FlitsPerPacket, first, last)
		}
	}
	// Longer packets congest more at the largest burst size.
	small := res.Curves[0].Series.Sorted()
	large := res.Curves[1].Series.Sorted()
	if large.Points[len(large.Points)-1].Y <= small.Points[len(small.Points)-1].Y {
		t.Error("more flits/packet did not increase congestion")
	}
	if out := res.Table(); !strings.Contains(out, "packets/burst") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestFigure4LatencySaturates(t *testing.T) {
	res, err := Figure4([]int{1, 4, 16, 32, 64}, 4, 384)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series.Sorted()
	if len(s.Points) != 5 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Latency grows from the smallest burst...
	if s.Points[0].Y >= s.Points[2].Y {
		t.Errorf("latency did not grow: %v -> %v", s.Points[0].Y, s.Points[2].Y)
	}
	// ...and flattens: the last step changes much less than the first.
	firstStep := s.Points[2].Y - s.Points[0].Y
	lastStep := s.Points[4].Y - s.Points[3].Y
	if lastStep > firstStep {
		t.Errorf("no saturation: first step %v, last step %v", firstStep, lastStep)
	}
	if res.MaxLatency <= 0 {
		t.Error("no maximum recorded")
	}
	if out := res.Table(); !strings.Contains(out, "latency maximum") {
		t.Errorf("table malformed:\n%s", out)
	}
}
