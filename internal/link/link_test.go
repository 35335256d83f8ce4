package link

import (
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

func mkFlit(seq uint64) *flit.Flit {
	return &flit.Flit{
		Kind: flit.HeadTail, Packet: flit.MakePacketID(1, seq),
		Src: 1, Dst: 2, PacketLen: 1,
	}
}

func TestLinkOneCycleLatency(t *testing.T) {
	l := NewLink("l0")
	f := mkFlit(0)
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	if l.Peek() != nil {
		t.Error("flit visible before commit")
	}
	l.Commit(0)
	if l.Peek() != f {
		t.Error("flit not visible after commit")
	}
	got := l.Take()
	if got != f {
		t.Error("Take did not return the flit")
	}
	if l.Take() != nil {
		t.Error("double Take succeeded")
	}
	l.Commit(1)
	if l.Peek() != nil {
		t.Error("taken flit still on wire")
	}
}

func TestLinkDoubleDrive(t *testing.T) {
	l := NewLink("l0")
	if err := l.Send(mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if !l.Busy() {
		t.Error("Busy false after Send")
	}
	if err := l.Send(mkFlit(1)); err == nil {
		t.Error("double drive accepted")
	}
	if err := l.Send(nil); err == nil {
		t.Error("nil flit accepted")
	}
}

func TestLinkHoldsUntakenFlit(t *testing.T) {
	l := NewLink("l0")
	f := mkFlit(0)
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	l.Commit(0)
	l.Commit(1) // receiver stalled: nothing taken, nothing sent
	if l.Peek() != f {
		t.Error("untaken flit vanished")
	}
	if l.Overruns() != 0 {
		t.Error("spurious overrun")
	}
}

func TestLinkOverrunDetection(t *testing.T) {
	l := NewLink("l0")
	if err := l.Send(mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	l.Commit(0)
	// Receiver does not take, sender drives again: the old flit is lost.
	if err := l.Send(mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	l.Commit(1)
	if l.Overruns() != 1 {
		t.Errorf("overruns = %d, want 1", l.Overruns())
	}
}

func TestLinkDropHandlerReceivesOverrun(t *testing.T) {
	l := NewLink("l0")
	var dropped []*flit.Flit
	l.SetDropHandler(func(f *flit.Flit) { dropped = append(dropped, f) })
	lost := mkFlit(0)
	if err := l.Send(lost); err != nil {
		t.Fatal(err)
	}
	l.Commit(0)
	if err := l.Send(mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	l.Commit(1)
	if len(dropped) != 1 || dropped[0] != lost {
		t.Fatalf("dropped = %v, want the overwritten flit", dropped)
	}
}

func TestLinkDrainReleasesWireAndHeldFlit(t *testing.T) {
	l := NewLink("l0")
	onWire, held := mkFlit(0), mkFlit(1)
	if err := l.Send(onWire); err != nil {
		t.Fatal(err)
	}
	l.Commit(0)
	// A stuck fault holds the next flit in the staging register.
	l.SetFault(FaultStuck)
	if err := l.Send(held); err != nil {
		t.Fatal(err)
	}
	l.Commit(1)
	var got []*flit.Flit
	l.Drain(func(f *flit.Flit) { got = append(got, f) })
	if len(got) != 2 {
		t.Fatalf("drained %d flits, want 2 (wire + held)", len(got))
	}
	if got[0] != onWire || got[1] != held {
		t.Errorf("drained wrong flits: %v", got)
	}
	if l.Peek() != nil {
		t.Error("wire not empty after drain")
	}
	// Drain on an empty link is a no-op.
	l.Drain(func(*flit.Flit) { t.Error("release called on empty link") })
}

func TestLinkUtilizationAndFlits(t *testing.T) {
	l := NewLink("l0")
	// 10 cycles, flit on wire during 5 of them.
	for c := uint64(0); c < 10; c++ {
		if c%2 == 0 {
			if err := l.Send(mkFlit(c)); err != nil {
				t.Fatal(err)
			}
		}
		if f := l.Take(); f == nil && l.Peek() != nil {
			t.Fatal("take failed with flit present")
		}
		l.Commit(c)
	}
	if l.Flits() != 5 {
		t.Errorf("flits = %d, want 5", l.Flits())
	}
	if got := l.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	l.ResetStats()
	if l.Utilization() != 0 || l.Flits() != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestLinkComponentInterface(t *testing.T) {
	l := NewLink("wire")
	if l.ComponentName() != "wire" {
		t.Errorf("name = %q", l.ComponentName())
	}
	l.Tick(0) // must be a no-op
	if l.Peek() != nil || l.Busy() {
		t.Error("Tick changed state")
	}
}

func TestCreditLinkLatencyAndAccumulation(t *testing.T) {
	c := NewCreditLink("cr")
	c.Send(2)
	if c.Pending() != 0 {
		t.Error("credits visible before commit")
	}
	c.Commit(0)
	if c.Pending() != 2 {
		t.Errorf("pending = %d, want 2", c.Pending())
	}
	// Uncollected credits accumulate with newly arriving ones.
	c.Send(3)
	c.Commit(1)
	if got := c.Take(); got != 5 {
		t.Errorf("Take = %d, want 5", got)
	}
	if c.Take() != 0 {
		t.Error("second Take returned credits")
	}
	if c.TotalSent() != 5 {
		t.Errorf("TotalSent = %d", c.TotalSent())
	}
}

func TestCreditLinkComponentInterface(t *testing.T) {
	c := NewCreditLink("cr")
	if c.ComponentName() != "cr" {
		t.Errorf("name = %q", c.ComponentName())
	}
	c.Tick(0)
	if c.Pending() != 0 {
		t.Error("Tick changed state")
	}
}

// Property: credits are conserved — for any send/collect pattern, the
// total taken never exceeds the total sent, and after a final commit and
// take they are equal.
func TestCreditConservationProperty(t *testing.T) {
	f := func(sends []uint8, collectMask uint16) bool {
		c := NewCreditLink("cr")
		var sent, taken uint64
		for i, s := range sends {
			if i >= 16 {
				break
			}
			c.Send(uint32(s))
			sent += uint64(s)
			if collectMask&(1<<uint(i)) != 0 {
				taken += uint64(c.Take())
			}
			c.Commit(uint64(i))
			if taken > sent {
				return false
			}
		}
		c.Commit(99)
		taken += uint64(c.Take())
		return taken == sent && c.TotalSent() == sent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a flit sent on an idle link with a cooperating receiver is
// delivered exactly once, one commit later, regardless of traffic
// pattern.
func TestLinkDeliveryProperty(t *testing.T) {
	f := func(pattern uint32) bool {
		l := NewLink("l")
		var sentSeqs, gotSeqs []uint64
		seq := uint64(0)
		for c := uint64(0); c < 32; c++ {
			if got := l.Take(); got != nil {
				gotSeqs = append(gotSeqs, got.Packet.Seq())
			}
			if pattern&(1<<uint(c)) != 0 {
				if err := l.Send(mkFlit(seq)); err != nil {
					return false
				}
				sentSeqs = append(sentSeqs, seq)
				seq++
			}
			l.Commit(c)
		}
		if got := l.Take(); got != nil {
			gotSeqs = append(gotSeqs, got.Packet.Seq())
		}
		if l.Overruns() != 0 {
			return false
		}
		if len(gotSeqs) != len(sentSeqs) {
			return false
		}
		for i := range gotSeqs {
			if gotSeqs[i] != sentSeqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCreditLinkTakeBefore: TakeBefore(c) leaves on the wire what the
// commit of cycle c added and takes the rest — where a consumer that
// ticks every cycle stands once it has ticked in cycle c.
func TestCreditLinkTakeBefore(t *testing.T) {
	type commit struct {
		at uint64
		n  uint32
	}
	for _, tc := range []struct {
		name       string
		commits    []commit
		take, load bool // a plain Take, or a save and load, after the commits
		limit      uint64
		want, left uint32
	}{
		{name: "nothing committed", limit: 7},
		{name: "nothing committed, cycle 0", limit: 0},
		{name: "committed earlier", commits: []commit{{3, 2}}, limit: 7, want: 2},
		{name: "committed at the limit", commits: []commit{{7, 2}}, limit: 7, left: 2},
		{name: "two commits, one at the limit", commits: []commit{{5, 1}, {7, 3}}, limit: 7, want: 1, left: 3},
		{name: "two commits before the limit", commits: []commit{{5, 1}, {6, 3}}, limit: 7, want: 4},
		{name: "after a plain Take", commits: []commit{{5, 1}, {7, 3}}, take: true, limit: 7},
		{name: "after LoadState", commits: []commit{{5, 1}, {7, 3}}, load: true, limit: 7, want: 4},
	} {
		c := NewCreditLink("cr")
		for _, cm := range tc.commits {
			c.Send(cm.n)
			c.Commit(cm.at)
		}
		if tc.take {
			c.Take()
		}
		if tc.load {
			w := state.NewWriter()
			c.SaveState(w)
			if err := c.LoadState(state.NewReader(w.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.TakeBefore(tc.limit); got != tc.want || c.Pending() != tc.left {
			t.Errorf("%s: TakeBefore(%d) = %d leaving %d, want %d leaving %d", tc.name, tc.limit, got, c.Pending(), tc.want, tc.left)
		}
		if got := c.TakeBefore(tc.limit); got != 0 || c.Pending() != tc.left {
			t.Errorf("%s: a second TakeBefore took %d more", tc.name, got)
		}
		if got := c.Take(); got != tc.left {
			t.Errorf("%s: the Take that follows = %d, want the %d left", tc.name, got, tc.left)
		}
	}
}

// TestArrivalFlags: a wire sets its consumer's flag in the commit that
// makes a flit or credits visible, in no other commit — an empty one, a
// stuck fault holding the flit back. The consumer owns the flag and
// clears it; the wire never does.
func TestArrivalFlags(t *testing.T) {
	var arr, cred uint8
	l, c := NewLink("l"), NewCreditLink("cr")
	l.NotifyArrival(&arr)
	c.NotifyArrival(&cred)
	commit := func(cycle uint64) (uint8, uint8) {
		arr, cred = 0, 0
		l.Commit(cycle)
		c.Commit(cycle)
		return arr, cred
	}
	if a, cr := commit(0); a != 0 || cr != 0 {
		t.Errorf("idle commit raised flags %d/%d", a, cr)
	}
	l.SetFault(FaultStuck)
	if err := l.Send(mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	c.Send(2)
	if a, cr := commit(1); a != 0 || cr != 1 {
		t.Errorf("stuck flit, credits delivered: flags %d/%d, want 0/1", a, cr)
	}
	if a, cr := commit(2); a != 0 || cr != 0 || l.Peek() != nil || c.Pending() != 2 {
		t.Errorf("flit still held, uncollected credits: flags %d/%d, want 0/0", a, cr)
	}
	l.SetFault(FaultNone)
	if a, _ := commit(3); a != 1 || l.Peek() == nil {
		t.Errorf("the delivering commit left the arrival flag at %d", a)
	}
	if a, _ := commit(4); a != 0 || l.Take() == nil {
		t.Errorf("an untaken flit staying on the wire raised the flag again (%d)", a)
	}
}

// TestArenaArmHooks: the hooks SetHooks installs fire on every Send with
// the wire pair's index; ArmHooks(false) silences every wire of the arena
// and ArmHooks(true) restores the same hooks.
func TestArenaArmHooks(t *testing.T) {
	a := NewArena("wires", 2, 2)
	a.NewPair("l0", "c0")
	l1, crs := a.NewPair("l1", "c1")
	var flits, credits []int
	a.SetHooks(func(i int) { flits = append(flits, i) }, func(i int) { credits = append(credits, i) }, nil)
	send := func(cycle uint64) {
		l1.Take()
		if err := l1.Send(mkFlit(cycle)); err != nil {
			t.Fatal(err)
		}
		crs[1].Send(1)
		a.Commit(cycle)
	}
	send(0)
	a.ArmHooks(false)
	send(1)
	a.ArmHooks(true)
	send(2)
	if len(flits) != 2 || flits[0] != 1 || flits[1] != 1 || len(credits) != 2 || credits[0] != 1 || credits[1] != 1 || l1.Overruns() != 0 {
		t.Errorf("hooks saw flits %v and credits %v, want pair 1 twice each: on, off, on", flits, credits)
	}
}
