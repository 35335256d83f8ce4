package link

import (
	"testing"

	"nocemu/internal/probe"
)

// TestStuckFaultHoldsFlit: a stuck fault set behind the sender in the
// send cycle holds the flit sent in it, the sender sees Busy from then
// on, and clearing the fault releases the flit intact, visible in the
// next cycle. HELD counts every cycle from the hold to the release.
func TestStuckFaultHoldsFlit(t *testing.T) {
	p := newPair()
	l := p.l
	f := mkFlit(0)
	f.Check = f.Checksum()
	if err := l.Send(0, f); err != nil {
		t.Fatal(err)
	}
	l.SetFault(FaultStuck)
	for c := uint64(0); c < 5; c++ {
		if l.Peek(c+1) != nil {
			t.Fatal("flit transferred through a stuck link")
		}
		if !l.Busy(c + 1) {
			t.Fatal("stuck link not busy (sender would double-drive)")
		}
	}
	p.now = 5
	if l.HeldCycles() != 5 {
		t.Errorf("held cycles = %d", l.HeldCycles())
	}
	if l.Flits() != 0 || l.BusyCycles() != 0 {
		t.Errorf("a held flit counts as %d flits and %d busy cycles, want none yet", l.Flits(), l.BusyCycles())
	}
	// Clearing the fault releases the flit intact, visible the next cycle.
	l.SetFault(FaultNone)
	if !l.Busy(5) {
		t.Error("the wire is free in the cycle it releases a flit")
	}
	got := l.Take(6)
	if got != f {
		t.Fatal("flit lost across stuck window")
	}
	if got.Check != got.Checksum() {
		t.Error("flit damaged by stuck fault")
	}
	if l.Overruns() != 0 || l.Busy(6) {
		t.Error("spurious overrun, or the wire still busy after the release")
	}
	p.now = 7
	if l.Flits() != 1 || l.BusyCycles() != 1 || l.TotalCycles() != 7 || l.HeldCycles() != 5 {
		t.Errorf("after the release: %d flits, %d busy of %d cycles, %d held, want 1, 1 of 7, 5",
			l.Flits(), l.BusyCycles(), l.TotalCycles(), l.HeldCycles())
	}
}

// TestStuckWireHoldsAtSend: a flit sent into a wire already stuck is
// held by Send itself, so the sender sees Busy in the same cycle, and
// nothing reaches the reader: no flag, no hook.
func TestStuckWireHoldsAtSend(t *testing.T) {
	p := newPair()
	var arr [2]uint8
	p.l.NotifyArrival([2]*uint8{&arr[0], &arr[1]})
	calls := 0
	hook := func(int) { calls++ }
	p.a.SetHooks(&hook)
	p.l.SetFault(FaultStuck)
	p.now = 3
	if err := p.l.Send(3, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if !p.l.Busy(3) || p.l.Peek(4) != nil || arr != [2]uint8{} || calls != 0 {
		t.Errorf("busy %v, visible %v, flags %v, hook calls %d: want held, busy, silent",
			p.l.Busy(3), p.l.Peek(4) != nil, arr, calls)
	}
	p.now = 4
	if p.l.HeldCycles() != 1 {
		t.Errorf("held cycles = %d after one cycle", p.l.HeldCycles())
	}
}

func TestStuckFaultStillDrainsTakenFlit(t *testing.T) {
	l := NewLink("l")
	if err := l.Send(0, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if l.Take(1) == nil {
		t.Fatal("take failed")
	}
	l.SetFault(FaultStuck)
	if l.Peek(1) != nil || l.Peek(2) != nil || l.Busy(2) {
		t.Error("taken flit still visible, or held, under stuck fault")
	}
}

// TestCorruptFaultFlipsPayloadAndChecksumCatchesIt: a corrupt fault
// set behind the sender flips the flit sent in its cycle, one set before
// it flips at Send; either way the FaultFire lands in the send cycle,
// and a cycle that sent nothing has nothing to flip.
func TestCorruptFaultFlipsPayloadAndChecksumCatchesIt(t *testing.T) {
	p := newPair()
	l := p.l
	c := probe.NewCollector(probe.Config{})
	l.SetProbe(c.NewProbe("l"))
	f := mkFlit(0)
	f.Payload = 0x1234
	f.Check = f.Checksum()
	p.now = 3
	if err := l.Send(3, f); err != nil {
		t.Fatal(err)
	}
	if f.Payload != 0x1234 {
		t.Fatal("a healthy wire flipped the flit")
	}
	l.SetFault(FaultCorrupt)
	got := l.Take(4)
	if got == nil {
		t.Fatal("corrupt fault dropped the flit")
	}
	if got.Payload == 0x1234 {
		t.Error("payload not flipped")
	}
	if got.Check == got.Checksum() {
		t.Error("corruption not detectable by checksum")
	}
	p.now = 4
	l.SetFault(FaultCorrupt) // nothing sent in cycle 4: nothing to flip
	if l.Corrupted() != 1 {
		t.Errorf("corrupted count = %d, want 1", l.Corrupted())
	}
	g := mkFlit(1)
	if err := l.Send(4, g); err != nil {
		t.Fatal(err)
	}
	if g.Payload == 0 || l.Corrupted() != 2 {
		t.Errorf("a flit sent into a corrupting wire kept its payload (count %d)", l.Corrupted())
	}
	c.Tick(5) // drains the rings
	if ev := c.Events(); len(ev) != 2 || ev[0].Kind != probe.KindFaultFire || ev[0].Cycle != 3 || ev[1].Cycle != 4 {
		t.Errorf("traced %+v, want fault fires in the send cycles 3 and 4", ev)
	}
	l.ResetStats()
	if l.Corrupted() != 0 || l.HeldCycles() != 0 {
		t.Error("ResetStats missed fault counters")
	}
}

// TestFaultUntilLeavesTheEdgeToItsSetter: a mode set until a cycle
// judges the flits Send sees before it and none from it on; the setter's
// next call in that cycle judges the one sent there by the mode it sets,
// and a call that keeps the mode judges nothing twice.
func TestFaultUntilLeavesTheEdgeToItsSetter(t *testing.T) {
	for _, tc := range []struct {
		name       string
		next       FaultMode
		held, flip bool
	}{
		{"to none", FaultNone, false, false},
		{"to corrupt", FaultCorrupt, false, true},
		{"to stuck", FaultStuck, true, false},
	} {
		p := newPair()
		p.now = 3
		p.l.SetFaultAt(3, FaultCorrupt, 5)
		before := mkFlit(0)
		if err := p.l.Send(3, before); err != nil {
			t.Fatal(err)
		}
		p.l.SetFaultAt(3, FaultCorrupt, 5) // the same mode again in cycle 3
		if before.Payload != ^uint32(0) || p.l.Corrupted() != 1 {
			t.Errorf("%s: the flit sent before the edge has payload %#x after %d flips, want one flip",
				tc.name, before.Payload, p.l.Corrupted())
		}
		p.l.Take(4)
		p.now = 5
		at := mkFlit(1)
		if err := p.l.Send(5, at); err != nil {
			t.Fatal(err)
		}
		if at.Payload != 0 {
			t.Errorf("%s: Send judged a flit sent on the edge", tc.name)
		}
		p.l.SetFaultAt(5, tc.next, never)
		if held := p.l.Peek(6) == nil; held != tc.held || (at.Payload != 0) != tc.flip {
			t.Errorf("%s: the flit sent on the edge is held %v, flipped %v; want %v, %v",
				tc.name, held, at.Payload != 0, tc.held, tc.flip)
		}
	}
}
