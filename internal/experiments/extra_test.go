package experiments

import (
	"strings"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/resource"
)

func TestScaleGrowsAreaShrinksSpeed(t *testing.T) {
	res, err := Scale([]int{2, 4}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	small, big := res.Rows[0], res.Rows[1]
	if big.Slices <= small.Slices {
		t.Errorf("area did not grow: %d vs %d", small.Slices, big.Slices)
	}
	if big.Switches != 16 || small.Switches != 4 {
		t.Errorf("switch counts: %d, %d", small.Switches, big.Switches)
	}
	// A software engine slows down with component count.
	if big.CyclesPerSec >= small.CyclesPerSec {
		t.Errorf("speed did not drop with size: %.3g vs %.3g", small.CyclesPerSec, big.CyclesPerSec)
	}
	// The 2x2 platform must fit the paper's own FPGA.
	if !small.FitsOK || !strings.Contains(small.Fits, "XC2VP") {
		t.Errorf("small platform fit: %q", small.Fits)
	}
	// A platform fits exactly when the family's largest part holds it.
	largest := resource.VirtexIIProFamily[len(resource.VirtexIIProFamily)-1].Slices
	for _, row := range res.Rows {
		if row.FitsOK != (row.Slices <= largest) {
			t.Errorf("%dx%d: %d slices, fits = %v", row.MeshW, row.MeshW, row.Slices, row.FitsOK)
		}
	}
	if out := res.Table(); !strings.Contains(out, "smallest FPGA") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestSaturationKneeNearHalfLoad(t *testing.T) {
	res, err := Saturation([]float64{0.10, 0.40, 0.70}, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Latency.Sorted()
	if len(lat.Points) != 3 {
		t.Fatalf("points = %d", len(lat.Points))
	}
	l10, l40, l70 := lat.Points[0].Y, lat.Points[1].Y, lat.Points[2].Y
	// Latency grows with load, and beyond saturation (>50% per TG on a
	// 2:1 shared link) it grows much faster.
	if !(l10 < l40 && l40 < l70) {
		t.Errorf("latency not increasing: %.1f %.1f %.1f", l10, l40, l70)
	}
	if l70-l40 < 2*(l40-l10) {
		t.Errorf("no saturation knee: steps %.1f then %.1f", l40-l10, l70-l40)
	}
	// Throughput at 70% offered is capped by the 100%-saturated hot
	// link: at most ~0.5 flits/cycle/TR (plus measurement slack).
	thr, _ := res.Throughput.YAt(0.70)
	if thr > 0.56 {
		t.Errorf("throughput %v exceeds hot-link capacity", thr)
	}
	if thr < 0.40 {
		t.Errorf("throughput %v implausibly low", thr)
	}
	if out := res.Table(); !strings.Contains(out, "offered load") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestVCStudyShowsDeadlockBoundary(t *testing.T) {
	res, err := VCStudy([]uint16{1, 8, 16}, 8, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Under sustained injection the single-class rings wedge on their
	// buffer cycle at every packet length (the watchdog ends the run well
	// inside the budget); the dateline rings always complete.
	for _, row := range res.Rows {
		if row.WormholeDone || row.WormholeDelivered >= 16*8 || row.WormholeCycles >= 30_000 {
			t.Errorf("plen %d: wormhole rings did not deadlock under the watchdog: %+v", row.PacketLen, row)
		}
		if !row.DatelineDone || row.DatelineDelivered != 16*8 {
			t.Errorf("plen %d: dateline failed: %+v", row.PacketLen, row)
		}
	}
	// Dateline run time grows with the traffic volume.
	if res.Rows[2].DatelineCycles <= res.Rows[0].DatelineCycles {
		t.Error("dateline cycles did not grow with packet length")
	}
	out := res.Table()
	if !strings.Contains(out, "DEADLOCK") {
		t.Errorf("table missing deadlock marker:\n%s", out)
	}
}

// TestDatelineBreaksRingDeadlock is the headline virtual-channel
// result on the real platform: one topology spec, one set of flows, and
// the channel count decides. On one channel the deadlock checker
// rejects the table; built anyway it wedges, the watchdog fires and the
// stuck flits stay live. On two the table passes the checker and the
// network drains to an empty pool.
func TestDatelineBreaksRingDeadlock(t *testing.T) {
	const perSource, plen = 10, 16
	run := func(vcs int) (*platform.Platform, *platform.Watchdog, bool) {
		cfg, err := VCStudyConfig(vcs, perSource, plen)
		if err != nil {
			t.Fatal(err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatalf("vcs=%d: %v", vcs, err)
		}
		wd, err := p.AttachWatchdog(1_000)
		if err != nil {
			t.Fatal(err)
		}
		_, stopped := p.Run(50_000)
		return p, wd, stopped
	}

	cfg, err := VCStudyConfig(1, perSource, plen)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AllowDeadlock = false
	if _, err := platform.Build(cfg); err == nil {
		t.Error("single-channel minimal torus passed the deadlock check")
	}
	p, wd, stopped := run(1)
	if stalled, _ := wd.Stalled(); stopped || !stalled {
		t.Errorf("single-channel rings: stopped=%v stalled=%v, want a watchdog abort", stopped, stalled)
	}
	if p.Pool().Live() == 0 || p.Totals().PacketsReceived >= vcStudySources*perSource {
		t.Error("single-channel rings delivered everything")
	}

	p, wd, stopped = run(2)
	if stalled, _ := wd.Stalled(); !stopped || stalled {
		t.Fatalf("dateline rings: stopped=%v stalled=%v", stopped, stalled)
	}
	for _, tr := range p.TRs() {
		if got := tr.Stats().Packets; got != perSource {
			t.Errorf("%s received %d packets, want %d", tr.ComponentName(), got, perSource)
		}
	}
	if live := p.Pool().Live(); live != 0 {
		t.Errorf("%d flits still live after the dateline run drained", live)
	}
}

func TestBufferStudyTradeoff(t *testing.T) {
	res, err := BufferStudy([]int{2, 8, 32}, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	shallow, deep := res.Rows[0], res.Rows[2]
	// Deeper buffers reduce blocking at the 90% links...
	if deep.CongestionRate >= shallow.CongestionRate {
		t.Errorf("congestion did not fall with depth: %.4f -> %.4f",
			shallow.CongestionRate, deep.CongestionRate)
	}
	// ...and always cost more area.
	if deep.SwitchSlices <= shallow.SwitchSlices {
		t.Errorf("area did not grow: %d -> %d", shallow.SwitchSlices, deep.SwitchSlices)
	}
	if out := res.Table(); !strings.Contains(out, "buffer depth") {
		t.Errorf("table malformed:\n%s", out)
	}
}
