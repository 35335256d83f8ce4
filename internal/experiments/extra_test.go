package experiments

import (
	"strings"
	"testing"
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
	res, err := VCStudy([]uint16{1, 16}, 8, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Under sustained injection the single-VC ring wedges on its buffer
	// cycle at every packet length; the dateline ring always completes.
	for _, row := range res.Rows {
		if row.WormholeDone {
			t.Errorf("plen %d: wormhole ring did not deadlock", row.PacketLen)
		}
		if !row.DatelineDone || row.DatelineDelivered != 24 {
			t.Errorf("plen %d: dateline failed: %+v", row.PacketLen, row)
		}
	}
	// Dateline run time grows with the traffic volume.
	if res.Rows[1].DatelineCycles <= res.Rows[0].DatelineCycles {
		t.Error("dateline cycles did not grow with packet length")
	}
	out := res.Table()
	if !strings.Contains(out, "DEADLOCK") {
		t.Errorf("table missing deadlock marker:\n%s", out)
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
