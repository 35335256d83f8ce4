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
		{"TG stochastic", TGStochasticBill(4, 5, 32).Slices(kTGStochastic), PaperTGStochasticSlices},
		{"TG trace", TGTraceBill(5, 32).Slices(kTGTrace), PaperTGTraceSlices},
		{"TR stochastic", TRStochasticBill(32, 32, 4).Slices(kTRStochastic), PaperTRStochasticSlices},
		{"TR trace", TRTraceBill(64, 4).Slices(kTRTrace), PaperTRTraceSlices},
		{"control", ControlBill(15).Slices(kControl), PaperControlSlices},
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
	if TRStochasticBill(128, 128, 4).Slices(kTRStochastic) <= TRStochasticBill(8, 8, 4).Slices(kTRStochastic) {
		t.Error("TR area does not grow with bins")
	}
	// Longer queues cost more.
	if TGStochasticBill(4, 5, 128).Slices(kTGStochastic) <= TGStochasticBill(4, 5, 8).Slices(kTGStochastic) {
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
	tgS := TGStochasticBill(4, 5, 32).Slices(kTGStochastic)
	tgT := TGTraceBill(5, 32).Slices(kTGTrace)
	trS := TRStochasticBill(32, 32, 4).Slices(kTRStochastic)
	trT := TRTraceBill(64, 4).Slices(kTRTrace)
	ctl := ControlBill(15).Slices(kControl)
	if !(tgS > trT && trT > tgT && tgT > trS && trS > ctl) {
		t.Errorf("ordering broken: %d %d %d %d %d", tgS, trT, tgT, trS, ctl)
	}
}
