package receptor

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// trackLastFixture was recorded once, before the per-source tables
// became one row table; a new layout is a deliberate fixture edit.
const trackLastFixture = "trace_tracklast.state"

func trackLastConfig() Config {
	return Config{Name: "tr", Endpoint: 9, Mode: TraceDriven, TrackLast: true}
}

// driveTrackLast runs a trace-driven TrackLast receptor through three
// sources arriving out of source order, a statistics reset, traffic
// from a fourth source and two old ones, and stops with a packet half
// reassembled.
func driveTrackLast(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, trackLastConfig())
	for i, src := range []flit.EndpointID{7, 3, 5} {
		h.sendPacket(src, 0, 2, uint64(i))
		h.sendPacket(src, 1, 3, 0)
	}
	h.run(40)
	h.tr.ResetStats()
	h.sendPacket(5, 2, 1, h.cycle)
	h.sendPacket(1, 0, 2, h.cycle-3)
	h.sendPacket(7, 2, 2, 0)
	h.run(20)
	h.sendPacket(3, 2, 4, h.cycle)
	h.run(3)
	if len(h.tr.headInject) != 1 || len(h.queue) == 0 {
		t.Fatalf("stimulus ended with %d heads in reassembly and %d flits queued, want one packet mid-reassembly",
			len(h.tr.headInject), len(h.queue))
	}
	return h
}

func saveBytes(tr *TR) []byte {
	w := state.NewWriter()
	tr.SaveState(w)
	return w.Bytes()
}

// TestTrackLastSnapshotPinned holds the trace-driven receptor's
// snapshot layout, TrackLast section included, to bytes recorded
// before the per-source tables became one row table.
func TestTrackLastSnapshotPinned(t *testing.T) {
	h := driveTrackLast(t)
	got := saveBytes(h.tr)
	path := filepath.Join("testdata", trackLastFixture)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from %s (%d bytes, want %d)", path, len(got), len(want))
	}
}

// readout is everything the receptor's register bank reads.
type readout struct {
	Stats Stats
	P95   uint64
	Flows []SourceLatency
	Bins  []uint64
}

func readAll(tr *TR) readout {
	o := readout{Stats: tr.Stats(), P95: tr.NetLatencyP95()}
	for i := 0; i < tr.Flows(); i++ {
		fl, _ := tr.Flow(i)
		o.Flows = append(o.Flows, fl)
	}
	for i := 0; i < tr.LatHist().NumBins(); i++ {
		o.Bins = append(o.Bins, tr.LatHist().Bin(i))
	}
	return o
}

// TestTrackLastSnapshotRestores restores the pinned bytes into a fresh
// receptor: every register value matches the receptor that wrote them,
// and the restored one writes the same bytes back.
func TestTrackLastSnapshotRestores(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", trackLastFixture))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, trackLastConfig())
	r := state.NewReader(want)
	if err := h.tr.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after restore", r.Remaining())
	}
	if got := saveBytes(h.tr); !bytes.Equal(got, want) {
		t.Error("restored receptor does not write its snapshot back byte for byte")
	}
	orig := readAll(driveTrackLast(t).tr)
	if got := readAll(h.tr); !reflect.DeepEqual(got, orig) {
		t.Errorf("restored reads\n%+v\nwant\n%+v", got, orig)
	}
	if len(orig.Flows) < 3 || orig.Flows[0].Last == 0 {
		t.Fatalf("flows %+v: want at least three sources with TrackLast latencies", orig.Flows)
	}
}

// TestLoadRejectsDisagreeingFlowSections tampers with the last-latency
// section, the snapshot's tail: a section that names another source or
// another number of sources than the latency floors is refused.
func TestLoadRejectsDisagreeingFlowSections(t *testing.T) {
	tr := driveTrackLast(t).tr
	good := saveBytes(tr)
	// last writes the section for the first n flows, the first source
	// renamed when asked.
	last := func(n int, rename bool) []byte {
		w := state.NewWriter()
		w.Int(n)
		for i := 0; i < n; i++ {
			fl, _ := tr.Flow(i)
			if rename && i == 0 {
				fl.Src += 100
			}
			w.U16(uint16(fl.Src))
			w.U64(fl.Last)
		}
		return w.Bytes()
	}
	tail := last(tr.Flows(), false)
	if !bytes.HasSuffix(good, tail) {
		t.Fatal("the last-latency section is not the snapshot's tail")
	}
	for name, bad := range map[string][]byte{"renamed": last(tr.Flows(), true), "short": last(tr.Flows()-1, false)} {
		snap := append(append([]byte(nil), good[:len(good)-len(tail)]...), bad...)
		err := newHarness(t, trackLastConfig()).tr.LoadState(state.NewReader(snap))
		if err == nil || !strings.Contains(err.Error(), "receptor tr:") {
			t.Errorf("%s section: load error %v, want one naming receptor tr", name, err)
		}
	}
	// A receptor that heard nothing ends in four zero bytes: no floors,
	// no accumulators, no congestion, no last latencies. A floors count
	// of 2^40 in their place must fail on the missing bytes, not
	// allocate the rows it claims.
	empty := saveBytes(newHarness(t, trackLastConfig()).tr)
	if !bytes.HasSuffix(empty, make([]byte, 4)) {
		t.Fatal("an empty receptor's snapshot does not end in its four empty flow fields")
	}
	w := state.NewWriter()
	w.Int(1 << 40)
	snap := append(append([]byte(nil), empty[:len(empty)-4]...), w.Bytes()...)
	err := newHarness(t, trackLastConfig()).tr.LoadState(state.NewReader(snap))
	if err == nil || !strings.Contains(err.Error(), "receptor tr:") {
		t.Errorf("oversized floors count: load error %v, want one naming receptor tr", err)
	}
}
