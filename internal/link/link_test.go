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

// pair is one wire pair in an arena of its own, read at a clock the test
// moves: what a platform's wires are, at the size of a test.
type pair struct {
	a   *Arena
	l   *Link
	cr  *CreditLink
	now uint64
}

func newPair() *pair {
	p := &pair{a: NewArena("wires", 1, 1)}
	var crs []*CreditLink
	p.l, crs = p.a.NewPair("l0", "cr0")
	p.cr = crs[0]
	p.a.SetClock(func() uint64 { return p.now })
	return p
}

func TestLinkOneCycleLatency(t *testing.T) {
	l := NewLink("l0")
	f := mkFlit(0)
	if err := l.Send(0, f); err != nil {
		t.Fatal(err)
	}
	if l.Peek(0) != nil {
		t.Error("flit visible in the cycle it was sent")
	}
	if l.Peek(1) != f {
		t.Error("flit not visible the next cycle")
	}
	if got := l.Take(1); got != f {
		t.Error("Take did not return the flit")
	}
	if l.Take(1) != nil {
		t.Error("double Take succeeded")
	}
	if l.Peek(2) != nil || l.Peek(3) != nil {
		t.Error("taken flit still on the wire")
	}
}

func TestLinkDoubleDrive(t *testing.T) {
	l := NewLink("l0")
	if err := l.Send(4, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if !l.Busy(4) {
		t.Error("Busy false after Send")
	}
	if l.Busy(5) {
		t.Error("Busy the cycle after a Send: the wire takes a flit every cycle")
	}
	if err := l.Send(4, mkFlit(1)); err == nil {
		t.Error("double drive accepted")
	}
	if err := l.Send(5, nil); err == nil {
		t.Error("nil flit accepted")
	}
}

// TestLinkHoldsUntakenFlit: a parity wire holds a flit for its visible
// cycle only; one its consumer leaves untaken is never lost silently —
// the next Send into its slot counts it as an overrun and hands it to
// the drop handler, and a Drain before that releases it.
func TestLinkHoldsUntakenFlit(t *testing.T) {
	p := newPair()
	var dropped []*flit.Flit
	p.a.SetDropHandler(func(f *flit.Flit, _ uint64) { dropped = append(dropped, f) })
	f := mkFlit(0)
	if err := p.l.Send(0, f); err != nil {
		t.Fatal(err)
	}
	if p.l.Peek(1) != f || p.l.Peek(2) != nil || p.l.Peek(3) != nil {
		t.Error("the flit is visible outside its cycle")
	}
	if p.l.Overruns() != 0 || len(dropped) != 0 {
		t.Error("spurious overrun while the slot is not reused")
	}
	if err := p.l.Send(2, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	if p.l.Overruns() != 1 || len(dropped) != 1 || dropped[0] != f {
		t.Errorf("untaken flit: %d overruns, dropped %v, want it counted and released", p.l.Overruns(), dropped)
	}
	var drained int
	p.l.Drain(func(*flit.Flit) { drained++ })
	if drained != 1 {
		t.Errorf("Drain released %d flits, want the one sent in cycle 2", drained)
	}
}

func TestLinkOverrunDetection(t *testing.T) {
	l := NewLink("l0")
	if err := l.Send(0, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	// The receiver does not take in cycle 1; the sender drives in 1 (the
	// other slot) and in 2, reusing the untaken one's slot.
	if err := l.Send(1, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	if l.Overruns() != 0 {
		t.Fatalf("overruns = %d before the slot is reused", l.Overruns())
	}
	if err := l.Send(2, mkFlit(2)); err != nil {
		t.Fatal(err)
	}
	if l.Overruns() != 1 {
		t.Errorf("overruns = %d, want 1", l.Overruns())
	}
}

func TestLinkDropHandlerReceivesOverrun(t *testing.T) {
	p := newPair()
	var dropped []*flit.Flit
	p.a.SetDropHandler(func(f *flit.Flit, _ uint64) { dropped = append(dropped, f) })
	lost := mkFlit(0)
	if err := p.l.Send(0, lost); err != nil {
		t.Fatal(err)
	}
	if err := p.l.Send(2, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != lost {
		t.Fatalf("dropped = %v, want the overwritten flit", dropped)
	}
}

func TestLinkDrainReleasesWireAndHeldFlit(t *testing.T) {
	p := newPair()
	l := p.l
	onWire, held := mkFlit(0), mkFlit(1)
	if err := l.Send(0, onWire); err != nil {
		t.Fatal(err)
	}
	// A stuck fault set before cycle 1 holds the next flit off the wire.
	p.now = 1
	l.SetFault(FaultStuck)
	if err := l.Send(1, held); err != nil {
		t.Fatal(err)
	}
	var got []*flit.Flit
	l.Drain(func(f *flit.Flit) { got = append(got, f) })
	if len(got) != 2 {
		t.Fatalf("drained %d flits, want 2 (wire + held)", len(got))
	}
	if got[0] != onWire || got[1] != held {
		t.Errorf("drained wrong flits: %v", got)
	}
	if l.Peek(1) != nil || l.Busy(2) {
		t.Error("wire not empty after drain")
	}
	// Drain on an empty link is a no-op.
	l.Drain(func(*flit.Flit) { t.Error("release called on empty link") })
}

func TestLinkUtilizationAndFlits(t *testing.T) {
	p := newPair()
	// 10 cycles, flit on wire during 5 of them.
	for c := uint64(0); c < 10; c++ {
		if c%2 == 0 {
			if err := p.l.Send(c, mkFlit(c)); err != nil {
				t.Fatal(err)
			}
		}
		if f := p.l.Take(c); f == nil && c%2 == 1 {
			t.Fatalf("cycle %d: take failed with a flit visible", c)
		}
	}
	p.now = 10 // ten cycles done; the last flit is visible in cycle 9
	if p.l.Flits() != 5 {
		t.Errorf("flits = %d, want 5", p.l.Flits())
	}
	if got := p.l.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	p.l.ResetStats()
	if p.l.Utilization() != 0 || p.l.Flits() != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

// TestLinkCountersAsCommitsHadThem: FLITS counts a flit by the end of
// its send cycle, BUSY in its visible cycle, CYCLES every cycle — read
// between cycles, and BUSY read in a cycle leaves out the flit visible
// in it. A reset in mid-flight starts them where per-cycle commits
// would have; a snapshot and a load keep them, and so does a Drain.
func TestLinkCountersAsCommitsHadThem(t *testing.T) {
	p := newPair()
	if err := p.l.Send(0, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	p.now = 1
	if got := [3]uint64{p.l.Flits(), p.l.BusyCycles(), p.l.TotalCycles()}; got != [3]uint64{1, 0, 1} {
		t.Fatalf("after cycle 0: flits, busy, cycles = %v, want [1 0 1]", got)
	}
	p.l.ResetStats() // the flit is visible in cycle 1: it counts as busy, not as a flit
	p.l.Take(1)
	if err := p.l.Send(1, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	if got := p.l.BusyAt(1); got != 0 {
		t.Errorf("BUSY read in cycle 1 = %d, want 0: the flit visible in it is not counted yet", got)
	}
	p.now = 2
	if got := [3]uint64{p.l.Flits(), p.l.BusyCycles(), p.l.TotalCycles()}; got != [3]uint64{1, 1, 1} {
		t.Errorf("after cycle 1: flits, busy, cycles = %v, want [1 1 1]", got)
	}
	w := state.NewWriter()
	p.l.SaveState(w)
	q := newPair()
	q.now = 2
	if err := q.l.LoadState(state.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*pair{p, q} {
		x.l.Take(2)
		x.now = 3
		if got := [3]uint64{x.l.Flits(), x.l.BusyCycles(), x.l.TotalCycles()}; got != [3]uint64{1, 2, 2} {
			t.Errorf("after cycle 2: flits, busy, cycles = %v, want [1 2 2]", got)
		}
	}
	if err := p.l.Send(3, mkFlit(2)); err != nil {
		t.Fatal(err)
	}
	p.now = 4
	p.l.Drain(nil)
	if got := [3]uint64{p.l.Flits(), p.l.BusyCycles(), p.l.TotalCycles()}; got != [3]uint64{2, 2, 3} {
		t.Errorf("after a drain: flits, busy, cycles = %v, want [2 2 3]", got)
	}
}

// TestLinkSaveStatePanicsMidCycle: between cycles a wire holds at most
// the flit visible in the next one. A flit taken, sent or left untaken
// in the clock's cycle means the snapshot was taken mid-cycle.
func TestLinkSaveStatePanicsMidCycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(p *pair)
	}{
		{"taken", func(p *pair) { p.l.Send(4, mkFlit(0)); p.l.Take(5) }},
		{"sent", func(p *pair) { p.l.Send(5, mkFlit(0)) }},
		{"untaken", func(p *pair) { p.l.Send(2, mkFlit(0)) }},
	} {
		p := newPair()
		p.now = 5
		tc.do(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SaveState did not panic", tc.name)
				}
			}()
			p.l.SaveState(state.NewWriter())
		}()
	}
}

func TestLinkComponentInterface(t *testing.T) {
	l := NewLink("wire")
	if l.ComponentName() != "wire" {
		t.Errorf("name = %q", l.ComponentName())
	}
	if l.Peek(0) != nil || l.Peek(1) != nil || l.Busy(0) {
		t.Error("a new wire is not idle")
	}
}

func TestCreditLinkLatencyAndAccumulation(t *testing.T) {
	c := NewCreditLink("cr")
	c.Send(0, 2)
	if c.Take(0) != 0 {
		t.Error("credits visible in the cycle they were sent")
	}
	// Uncollected credits accumulate with newly arriving ones.
	c.Send(2, 3)
	if got := c.TakeBefore(2); got != 2 {
		t.Errorf("TakeBefore(2) = %d, want the 2 visible since cycle 1", got)
	}
	if got := c.Take(3); got != 3 {
		t.Errorf("Take = %d, want 3", got)
	}
	if c.Take(3) != 0 {
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
	if c.Pending() != 0 {
		t.Error("a new credit wire holds credits")
	}
}

// Property: credits are conserved — for any send/collect pattern, the
// total taken never exceeds the total sent, and after a final TakeBefore
// they are equal.
func TestCreditConservationProperty(t *testing.T) {
	f := func(sends []uint8, collectMask uint16) bool {
		c := NewCreditLink("cr")
		var sent, taken uint64
		for i, s := range sends {
			if i >= 16 {
				break
			}
			cyc := uint64(i)
			if collectMask&(1<<uint(i)) != 0 {
				taken += uint64(c.Take(cyc))
			} else {
				taken += uint64(c.TakeBefore(cyc - min(cyc, 1))) // a parked consumer catching up
			}
			c.Send(cyc, uint32(s))
			sent += uint64(s)
			if taken > sent {
				return false
			}
		}
		taken += uint64(c.TakeBefore(99))
		return taken == sent && c.TotalSent() == sent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a flit sent on an idle link with a cooperating receiver is
// delivered exactly once, one cycle later, regardless of traffic
// pattern.
func TestLinkDeliveryProperty(t *testing.T) {
	f := func(pattern uint32) bool {
		l := NewLink("l")
		var sentSeqs, gotSeqs []uint64
		seq := uint64(0)
		for c := uint64(0); c < 33; c++ {
			if got := l.Take(c); got != nil {
				gotSeqs = append(gotSeqs, got.Packet.Seq())
			}
			if c < 32 && pattern&(1<<uint(c)) != 0 {
				if err := l.Send(c, mkFlit(seq)); err != nil {
					return false
				}
				sentSeqs = append(sentSeqs, seq)
				seq++
			}
		}
		if l.Overruns() != 0 || len(gotSeqs) != len(sentSeqs) {
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

// TestCreditLinkTakeBefore: TakeBefore(c) leaves on the wire what was
// sent in cycle c and takes the rest — where a consumer that ticks every
// cycle stands once it has ticked in cycle c — whichever parity slot the
// credits sit in.
func TestCreditLinkTakeBefore(t *testing.T) {
	type send struct {
		at uint64
		n  uint32
	}
	for _, tc := range []struct {
		name       string
		sends      []send
		take, load bool // a Take in the limit cycle, or a save and load, after the sends
		limit      uint64
		want, left uint32
	}{
		{name: "nothing sent", limit: 7},
		{name: "nothing sent, cycle 0", limit: 0},
		{name: "sent earlier", sends: []send{{3, 2}}, limit: 7, want: 2},
		{name: "sent at the limit", sends: []send{{7, 2}}, limit: 7, left: 2},
		{name: "sent at the limit, odd slot", sends: []send{{6, 2}}, limit: 6, left: 2},
		{name: "two sends, one at the limit", sends: []send{{5, 1}, {7, 3}}, limit: 7, want: 1, left: 3},
		{name: "two sends, same slot", sends: []send{{5, 1}, {6, 4}, {7, 3}}, limit: 7, want: 5, left: 3},
		{name: "two sends before the limit", sends: []send{{5, 1}, {6, 3}}, limit: 7, want: 4},
		{name: "after a Take in the limit cycle", sends: []send{{6, 1}, {7, 3}}, take: true, limit: 7, left: 3},
		{name: "after LoadState", sends: []send{{5, 1}, {7, 3}}, load: true, limit: 7, want: 4},
	} {
		c := NewCreditLink("cr")
		for _, s := range tc.sends {
			c.Send(s.at, s.n)
		}
		if tc.take {
			c.Take(tc.limit)
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
		if got := c.Take(tc.limit + 1); got != tc.left {
			t.Errorf("%s: the Take that follows = %d, want the %d left", tc.name, got, tc.left)
		}
	}
}

// TestArrivalFlags: a wire raises its consumer's flag in the bank of the
// cycle a flit or credits become visible in, when they are sent or a
// stuck fault releases them, and at no other time. The consumer owns the
// flags and clears them; the wire never does.
func TestArrivalFlags(t *testing.T) {
	var arr, cred [2]uint8
	p := newPair()
	l, c := p.l, p.cr
	l.NotifyArrival([2]*uint8{&arr[0], &arr[1]})
	c.NotifyArrival([2]*uint8{&cred[0], &cred[1]})
	if err := l.Send(4, mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	c.Send(5, 2)
	if arr != [2]uint8{0, 1} || cred != [2]uint8{1, 0} {
		t.Errorf("sends in cycles 4 and 5 raised flags %v/%v, want the banks of 5 and 6", arr, cred)
	}
	arr, cred = [2]uint8{}, [2]uint8{}
	l.Take(5)
	if arr != [2]uint8{} {
		t.Errorf("a take raised flags %v", arr)
	}
	p.now = 6
	l.SetFault(FaultStuck)
	if err := l.Send(6, mkFlit(1)); err != nil {
		t.Fatal(err)
	}
	if arr != [2]uint8{} || l.Peek(7) != nil || l.Peek(8) != nil {
		t.Errorf("a held flit raised flags %v", arr)
	}
	p.now = 8
	l.SetFault(FaultNone)
	if arr != [2]uint8{0, 1} || l.Peek(9) == nil {
		t.Errorf("the release left the arrival flags at %v", arr)
	}
}

// TestArenaArmHooks: every Send calls the hook SetHooks installed, with
// the wire pair's index, through the variable it points to: set to nil
// it silences every wire of the arena, set again it fires again (the
// engine's stand-down). Credits call nothing.
func TestArenaArmHooks(t *testing.T) {
	a := NewArena("wires", 2, 2)
	a.NewPair("l0", "c0")
	l1, crs := a.NewPair("l1", "c1")
	var sends []int
	record := func(i int) { sends = append(sends, i) }
	hook := record
	a.SetHooks(&hook)
	send := func(cycle uint64) {
		l1.Take(cycle)
		if err := l1.Send(cycle, mkFlit(cycle)); err != nil {
			t.Fatal(err)
		}
		crs[1].Send(cycle, 1)
	}
	send(0)
	hook = nil
	send(1)
	hook = record
	send(2)
	if len(sends) != 2 || sends[0] != 1 || sends[1] != 1 || l1.Overruns() != 0 {
		t.Errorf("the hook saw pairs %v, want pair 1 twice: on, off, on", sends)
	}
}

// TestArenaShiftKeepsWhatIsOnTheWire: a timeline that jumps without
// executing cycles — by an odd or an even distance — moves the wires
// with it: the flit and credits visible next are visible next in the
// new numbering, flagged in the right bank, and the counters read on.
func TestArenaShiftKeepsWhatIsOnTheWire(t *testing.T) {
	for _, to := range []uint64{0, 1, 9} {
		p := newPair()
		var arr, cred [2]uint8
		p.l.NotifyArrival([2]*uint8{&arr[0], &arr[1]})
		p.cr.NotifyArrival([2]*uint8{&cred[0], &cred[1]})
		if err := p.l.Send(6, mkFlit(0)); err != nil {
			t.Fatal(err)
		}
		p.cr.Send(6, 3)
		p.now = 7
		busy, cycles := p.l.BusyCycles(), p.l.TotalCycles()
		p.a.Shift(to - p.now)
		p.now = to
		if p.l.Take(to) == nil || arr[to&1] == 0 {
			t.Errorf("shift to %d: the flit is not visible in cycle %d, flagged %v", to, to, arr)
		}
		if got := p.cr.Take(to); got != 3 || cred[to&1] == 0 {
			t.Errorf("shift to %d: took %d credits in cycle %d, flagged %v, want 3", to, got, to, cred)
		}
		if p.l.BusyCycles() != busy || p.l.TotalCycles() != cycles {
			t.Errorf("shift to %d: busy %d and cycles %d, want %d and %d", to, p.l.BusyCycles(), p.l.TotalCycles(), busy, cycles)
		}
	}
}

// TestSendTakeRaceFree: the producer's Send and the consumer's Take of
// one wire in one cycle touch different slots, so the pooled walk runs
// them on two goroutines without atomics. Under -race this is the check;
// the barrier between cycles is the channel.
func TestSendTakeRaceFree(t *testing.T) {
	p := newPair()
	var arr, cred [2]uint8
	p.l.NotifyArrival([2]*uint8{&arr[0], &arr[1]})
	p.cr.NotifyArrival([2]*uint8{&cred[0], &cred[1]})
	const cycles = 200
	flits := make([]flit.Flit, cycles)
	next, done := make(chan uint64), make(chan int)
	go func() { // the consumer: takes this cycle's slot, returns a credit
		got := 0
		for c := range next {
			if arr[c&1] != 0 {
				arr[c&1] = 0
				if p.l.Take(c) != nil {
					got++
					p.cr.Send(c, 1)
				}
			}
			done <- 0
		}
		done <- got
	}()
	credits := 1
	for c := uint64(0); c < cycles; c++ {
		next <- c // both sides run cycle c at once
		if cred[c&1] != 0 {
			cred[c&1] = 0
			credits += int(p.cr.Take(c))
		}
		if credits > 0 && !p.l.Busy(c) {
			if err := p.l.Send(c, &flits[c]); err != nil {
				t.Fatal(err)
			}
			credits--
		}
		<-done // the barrier
	}
	close(next)
	if got := <-done; got < cycles/3 || p.l.Overruns() != 0 {
		t.Errorf("%d flits crossed in %d cycles with %d overruns", got, cycles, p.l.Overruns())
	}
}

// BenchmarkWireHop times one flit across a wire and one credit back: the
// Send and Take of each, what a hop costs now that no wire commits. It
// allocates nothing.
func BenchmarkWireHop(b *testing.B) {
	p := newPair()
	var arr, cred [2]uint8
	p.l.NotifyArrival([2]*uint8{&arr[0], &arr[1]})
	p.cr.NotifyArrival([2]*uint8{&cred[0], &cred[1]})
	f := mkFlit(0)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		c := uint64(n)
		if p.l.Take(c) != nil {
			p.cr.Send(c, 1)
		}
		p.cr.Take(c)
		if err := p.l.Send(c, f); err != nil {
			b.Fatal(err)
		}
	}
}
