package resource

import (
	"math"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

func TestCalibrationReproducesPaperTable(t *testing.T) {
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"TG stochastic", EstimateTGStochastic(4, 5, 32), PaperTGStochasticSlices},
		{"TG trace", EstimateTGTrace(5, 32), PaperTGTraceSlices},
		{"TR stochastic", EstimateTRStochastic(32, 32, 4), PaperTRStochasticSlices},
		{"TR trace", EstimateTRTrace(64, 4), PaperTRTraceSlices},
		{"control", EstimateControl(15), PaperControlSlices},
	}
	for _, c := range cases {
		if d := math.Abs(float64(c.got - c.want)); d > 1 {
			t.Errorf("%s = %d slices, paper %d", c.name, c.got, c.want)
		}
	}
}

func TestBillsScaleWithParameters(t *testing.T) {
	// Deeper buffers cost more.
	if EstimateSwitch(4, 4, 16) <= EstimateSwitch(4, 4, 4) {
		t.Error("switch area does not grow with buffer depth")
	}
	// More ports cost more.
	if EstimateSwitch(8, 8, 8) <= EstimateSwitch(2, 2, 8) {
		t.Error("switch area does not grow with ports")
	}
	for in := 2; in <= 8; in++ {
		for out := 2; out <= 8; out++ {
			if s := EstimateSwitch(in, out, 8); s <= 0 {
				t.Errorf("%dx%d switch: %d slices", in, out, s)
			}
		}
	}
	// Bigger histograms cost more.
	if EstimateTRStochastic(128, 128, 4) <= EstimateTRStochastic(8, 8, 4) {
		t.Error("TR area does not grow with bins")
	}
	// Longer queues cost more.
	if EstimateTGStochastic(4, 5, 128) <= EstimateTGStochastic(4, 5, 8) {
		t.Error("TG area does not grow with queue depth")
	}
}

// TestAreaGrowsWithVirtualChannels: every virtual channel is a further
// FIFO, lock and credit counter per port, so at fixed buffer depth a
// platform's area is strictly increasing in vcs — a sweep over area
// cannot get channels for free.
func TestAreaGrowsWithVirtualChannels(t *testing.T) {
	prev := 0
	for _, vcs := range []int{1, 2, 3, 4} {
		cfg, err := platform.NetConfig(platform.NetOptions{
			Topo: topology.Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4, "vcs": vcs}},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Estimate(p, VirtexIIPro)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalSlices <= prev {
			t.Errorf("vcs=%d: %d slices, not above %d at vcs=%d", vcs, rep.TotalSlices, prev, vcs-1)
		}
		prev = rep.TotalSlices
	}
}

func TestBillArithmetic(t *testing.T) {
	a := Bill{FF: 10, LUT: 20}
	b := a.Add(Bill{FF: 1, LUT: 2})
	if b.FF != 11 || b.LUT != 22 {
		t.Errorf("add = %+v", b)
	}
	if s := a.Scale(3); s.FF != 30 || s.LUT != 60 {
		t.Errorf("scale = %+v", s)
	}
	if got := (Bill{FF: 100, LUT: 100}).Slices(1.0); got != 100 {
		t.Errorf("slices = %d", got)
	}
}

func TestEstimatePaperPlatform(t *testing.T) {
	// The paper platform: 4 TG + 4 TR + 6 switches + control. With all
	// TGs stochastic the platform total should land near the paper's
	// 7387 slices / 80% (their mix was 2+2 TG and TR flavors; the
	// per-flavor difference is under 10%).
	p, err := platform.BuildPaper(platform.PaperOptions{Traffic: platform.PaperUniform})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Estimate(p, VirtexIIPro)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4+4+6+1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.TotalSlices < 5800 || rep.TotalSlices > 8300 {
		t.Errorf("platform total = %d slices, paper 7387", rep.TotalSlices)
	}
	if rep.TotalPct < 60 || rep.TotalPct > 90 {
		t.Errorf("utilization = %.1f%%, paper 80%%", rep.TotalPct)
	}
	if !rep.Fits() {
		t.Error("paper platform does not fit its own FPGA")
	}
	if rep.MaxFrequencyMHz != 50 {
		t.Errorf("frequency = %v", rep.MaxFrequencyMHz)
	}
	// Device classes present with sane sizes.
	kinds := map[string]int{}
	for _, r := range rep.Rows {
		kinds[r.Kind]++
		if r.Slices <= 0 || r.Percent <= 0 {
			t.Errorf("row %s: %d slices %.2f%%", r.Device, r.Slices, r.Percent)
		}
	}
	if kinds["TG stochastic"] != 4 || kinds["TR stochastic"] != 4 || kinds["switch"] != 6 || kinds["control module"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestEstimateTraceFlavors(t *testing.T) {
	p, err := platform.BuildPaper(platform.PaperOptions{Traffic: platform.PaperTrace, PacketsPerTG: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Estimate(p, VirtexIIPro)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, r := range rep.Rows {
		kinds[r.Kind]++
	}
	if kinds["TG trace driven"] != 4 || kinds["TR trace driven"] != 4 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil, VirtexIIPro); err == nil {
		t.Error("nil platform accepted")
	}
	p, err := platform.BuildPaper(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(p, TargetDevice{Name: "broken"}); err == nil {
		t.Error("zero-slice target accepted")
	}
}

func TestOrderingMatchesPaper(t *testing.T) {
	// The paper's ordering: stochastic TG is the biggest traffic
	// device, then TR trace, then TG trace, then TR stochastic, and
	// the control module is the smallest.
	tgS := EstimateTGStochastic(4, 5, 32)
	tgT := EstimateTGTrace(5, 32)
	trS := EstimateTRStochastic(32, 32, 4)
	trT := EstimateTRTrace(64, 4)
	ctl := EstimateControl(15)
	if !(tgS > trT && trT > tgT && tgT > trS && trS > ctl) {
		t.Errorf("ordering broken: %d %d %d %d %d", tgS, trT, tgT, trS, ctl)
	}
}
