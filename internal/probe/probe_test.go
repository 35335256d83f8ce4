package probe

import (
	"bytes"
	"strings"
	"testing"
)

// drainAll forces a collector tick at the given cycle (the engine
// normally does this).
func drainAll(c *Collector, cycle uint64) { c.Tick(cycle) }

func TestNilProbeIsFree(t *testing.T) {
	var p *Probe
	// Every emit method must be a nil-receiver no-op.
	p.FlitInject(1, 2, 3, 4, 5)
	p.FlitRoute(1, 2, 3, 4, 5, 0, 1, 2)
	p.FlitBuffer(1, 2, 3)
	p.FlitEject(1, 2, 3, 4, 5, true)
	p.FlitDrop(1, 2, 3, 4, 5)
	p.CreditGrant(1)
	p.CreditStall(1, 0)
	p.FaultArm(1, 0, 2)
	p.FaultFire(1, 2, 3, 4, 5)
	p.FaultClear(1, 0)

	var c *Collector
	if got := c.NewProbe("x"); got != nil {
		t.Fatalf("nil collector NewProbe = %v, want nil", got)
	}
	c.SetArm(func() {})
	c.AddOccupancySampler(func(uint64) int { return 0 })
	c.AddBusySampler(func(uint64) uint64 { return 0 })
}

func TestCanonicalOrder(t *testing.T) {
	c := NewCollector(Config{Window: 16})
	a := c.NewProbe("a")
	b := c.NewProbe("b")

	// Emit out of cycle order across rings; drains interleave.
	b.CreditGrant(5)
	a.FlitInject(5, 1, 0, 1, 0)
	drainAll(c, 5)
	a.FlitInject(3, 2, 0, 1, 0)
	b.CreditGrant(3)
	drainAll(c, 6)

	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantOrder := []struct {
		cycle uint64
		ring  uint32
	}{{3, 0}, {3, 1}, {5, 0}, {5, 1}}
	for i, w := range wantOrder {
		if evs[i].Cycle != w.cycle || evs[i].Ring != w.ring {
			t.Errorf("event %d = (cycle %d, ring %d), want (%d, %d)",
				i, evs[i].Cycle, evs[i].Ring, w.cycle, w.ring)
		}
	}
	if evs[0].Comp != "a" || evs[1].Comp != "b" {
		t.Errorf("comp names = %q, %q, want a, b", evs[0].Comp, evs[1].Comp)
	}
}

func TestRingOverflowCountsDrops(t *testing.T) {
	c := NewCollector(Config{RingCap: 4})
	p := c.NewProbe("x")
	for i := 0; i < 10; i++ {
		p.CreditGrant(uint64(i))
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	drainAll(c, 10)
	if got := c.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := NewCollector(Config{Window: 8})
	p := c.NewProbe("x")
	c.AddOccupancySampler(func(uint64) int { return 3 })
	busy := uint64(0)
	c.AddBusySampler(func(uint64) uint64 { return busy })

	p.FlitInject(1, 1, 0, 1, 0)
	p.FlitInject(2, 2, 0, 1, 0)
	p.CreditStall(3, 1)
	p.CreditStall(9, 1) // second window
	p.FlitEject(10, 1, 0, 1, 0, false)
	for cy := uint64(0); cy <= 16; cy++ {
		busy = cy
		drainAll(c, cy)
	}

	if got := c.KindCount(KindInject); got != 2 {
		t.Errorf("KindCount(inject) = %d, want 2", got)
	}
	if got := c.KindCount(KindStall); got != 2 {
		t.Errorf("KindCount(stall) = %d, want 2", got)
	}
	if got := c.VCStalls(1); got != 2 {
		t.Errorf("VCStalls(1) = %d, want 2", got)
	}
	if got := c.NumVCs(); got != 2 {
		t.Errorf("NumVCs = %d, want 2", got)
	}
	w0, ok := c.WindowCounts(0)
	if !ok || w0.Inject != 2 || w0.Stall != 1 {
		t.Errorf("window 0 = %+v ok=%v, want inject 2 stall 1", w0, ok)
	}
	w1, ok := c.WindowCounts(1)
	if !ok || w1.Stall != 1 || w1.Eject != 1 {
		t.Errorf("window 1 = %+v ok=%v, want stall 1 eject 1", w1, ok)
	}
	if got := c.WindowOcc(1); got != 3 {
		t.Errorf("WindowOcc(1) = %d, want 3", got)
	}
	// Busy delta across window 1 (boundary 8 → boundary 16) is 8.
	if got := c.WindowBusy(1); got != 8 {
		t.Errorf("WindowBusy(1) = %d, want 8", got)
	}
}

func TestResetStats(t *testing.T) {
	c := NewCollector(Config{})
	p := c.NewProbe("x")
	p.FlitInject(1, 1, 0, 1, 0)
	drainAll(c, 1)
	c.ResetStats()
	if c.Total() != 0 || len(c.Events()) != 0 || c.WindowCount() != 0 {
		t.Fatalf("reset left state: total=%d events=%d windows=%d",
			c.Total(), len(c.Events()), c.WindowCount())
	}
	// The collector must keep working after a reset.
	p.FlitInject(2, 2, 0, 1, 0)
	drainAll(c, 2)
	if c.Total() != 1 {
		t.Fatalf("post-reset Total = %d, want 1", c.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector(Config{})
	p := c.NewProbe("tg0")
	p.FlitInject(7, 42, 0, 3, 2)
	p.FlitRoute(8, 42, 0, 3, 2, 1, 0, 2)
	p.FlitEject(9, 42, 0, 3, 2, true)
	drainAll(c, 9)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		ev, err := UnmarshalJSONL(line)
		if err != nil {
			t.Fatalf("line %d: decode: %v", i, err)
		}
		re, err := ev.MarshalJSONL()
		if err != nil {
			t.Fatalf("line %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(line, re) {
			t.Errorf("line %d not lossless:\n in: %s\nout: %s", i, line, re)
		}
	}
}

func TestUnmarshalRejectsUnknownFields(t *testing.T) {
	if _, err := UnmarshalJSONL([]byte(`{"cycle":1,"kind":"inject","comp":"x","ring":0,"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := UnmarshalJSONL([]byte(`{"cycle":1,"kind":"no-such-kind","comp":"x","ring":0}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestWriteVCD(t *testing.T) {
	c := NewCollector(Config{})
	a := c.NewProbe("tg0")
	b := c.NewProbe("sw0")
	a.FlitInject(1, 1, 0, 1, 0)
	b.FlitRoute(2, 1, 0, 1, 0, 0, 0, 1)
	drainAll(c, 2)

	var buf bytes.Buffer
	if err := c.WriteVCD(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$var reg 8 ! tg0 $end", "$var reg 8 \" sw0 $end", "#2\n", "#4\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

func TestSchedEventsGated(t *testing.T) {
	off := NewCollector(Config{})
	off.SchedPark(1, "x")
	off.SchedWake(2, "x")
	off.SchedFastForward(3, 9)
	if got := len(off.Events()); got != 0 {
		t.Fatalf("sched events recorded with Sched off: %d", got)
	}

	on := NewCollector(Config{Sched: true})
	on.SchedPark(1, "x")
	on.SchedFastForward(3, 9)
	evs := on.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d sched events, want 2", len(evs))
	}
	if evs[0].Kind != KindPark || evs[0].Ring != SchedRing || evs[0].Comp != "x" {
		t.Errorf("park event = %+v", evs[0])
	}
	if evs[1].Kind != KindFF || evs[1].Val != 9 || evs[1].Comp != "kernel" {
		t.Errorf("ff event = %+v", evs[1])
	}
}
