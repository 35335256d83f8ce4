package link

import (
	"testing"

	"nocemu/internal/probe"
)

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
		l.Commit(c)
		if l.Peek(c+1) != nil {
			t.Fatal("flit transferred through a stuck link")
		}
		if !l.Busy(c + 1) {
			t.Fatal("stuck link not busy (sender would double-drive)")
		}
	}
	if l.HeldCycles() != 5 {
		t.Errorf("held cycles = %d", l.HeldCycles())
	}
	p.now = 5
	if l.Flits() != 0 || l.BusyCycles() != 0 {
		t.Errorf("a held flit counts as %d flits and %d busy cycles, want none yet", l.Flits(), l.BusyCycles())
	}
	// Clearing the fault releases the flit intact, visible the next cycle.
	l.SetFault(FaultNone)
	l.Commit(5)
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
	if l.Flits() != 1 || l.BusyCycles() != 1 || l.TotalCycles() != 7 {
		t.Errorf("after the release: %d flits, %d busy of %d cycles, want 1, 1 of 7", l.Flits(), l.BusyCycles(), l.TotalCycles())
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
	l.Commit(1)
	if l.Peek(1) != nil || l.Peek(2) != nil || l.Busy(2) {
		t.Error("taken flit still visible, or held, under stuck fault")
	}
}

// TestCorruptFaultFlipsPayloadAndChecksumCatchesIt: the commit of the
// send cycle flips the flit that becomes visible next, and its FaultFire
// lands in the send cycle.
func TestCorruptFaultFlipsPayloadAndChecksumCatchesIt(t *testing.T) {
	l := NewLink("l")
	c := probe.NewCollector(probe.Config{})
	l.SetProbe(c.NewProbe("l"))
	f := mkFlit(0)
	f.Payload = 0x1234
	f.Check = f.Checksum()
	if err := l.Send(3, f); err != nil {
		t.Fatal(err)
	}
	l.SetFault(FaultCorrupt)
	l.Commit(2) // a commit before the send cycle's has nothing to flip
	if f.Payload != 0x1234 {
		t.Fatal("a commit of another cycle flipped the flit")
	}
	l.Commit(3)
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
	if l.Corrupted() != 1 {
		t.Errorf("corrupted count = %d", l.Corrupted())
	}
	c.Tick(4) // drains the rings
	if ev := c.Events(); len(ev) != 1 || ev[0].Kind != probe.KindFaultFire || ev[0].Cycle != 3 {
		t.Errorf("traced %+v, want one fault fire in the send cycle 3", ev)
	}
	l.Commit(4) // nothing sent in cycle 4: nothing to flip
	if l.Corrupted() != 1 {
		t.Errorf("corrupted count = %d after an empty commit", l.Corrupted())
	}
	l.ResetStats()
	if l.Corrupted() != 0 || l.HeldCycles() != 0 {
		t.Error("ResetStats missed fault counters")
	}
}

// TestFaultedListCommitsOnlyFaultedWires: SetFault puts a wire on its
// arena's faulted list and tells OnFault; the arena's Commit commits the
// list and drops a wire once it has neither a fault nor a held flit, and
// the arena is quiet exactly when the list is empty.
func TestFaultedListCommitsOnlyFaultedWires(t *testing.T) {
	a := NewArena("wires", 2, 1)
	l0, _ := a.NewPair("l0", "c0")
	l1, _ := a.NewPair("l1", "c1")
	told := 0
	a.OnFault(func() { told++ })
	if _, quiet := a.NextWake(0); !quiet {
		t.Fatal("an arena without faults is not quiet")
	}
	l1.SetFault(FaultStuck)
	l1.SetFault(FaultStuck)
	if told != 1 || len(a.faulted) != 1 || a.faulted[0] != l1 {
		t.Fatalf("told %d times, list %v: want l1 listed once", told, a.faulted)
	}
	if err := l1.Send(0, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if err := l0.Send(0, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	a.Commit(0)
	if l1.Peek(1) != nil || l0.Peek(1) == nil {
		t.Error("the arena's commit did not hold the faulted wire's flit, or touched the healthy wire")
	}
	l1.SetFault(FaultNone)
	a.Commit(1) // releases the held flit
	if _, quiet := a.NextWake(1); !quiet || l1.Peek(2) == nil || len(a.faulted) != 0 {
		t.Errorf("after the release: quiet %v, list %v, want the flit on view and the list empty", quiet, a.faulted)
	}
}
