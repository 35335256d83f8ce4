package switchfab

import (
	"bytes"
	"slices"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/routing"
	"nocemu/internal/state"
)

// The switch looks at a wire only when the wire's Send raised its flag
// in the bank of the cycle it is visible in (DESIGN.md §10, "Who tells
// whom"), and a parked switch collects the credits it slept through
// cycle for cycle in SkipIdle. These tests pin both by hand-built rigs:
// flags on either side of the 8-byte load, in either bank, stale and
// reloaded flags, a settle that stops exactly where the every-cycle
// schedule stands, and — under an engine's gate — a flit held back by a
// stuck fault, whose release is what wakes the switch.

func savedWire(c *link.CreditLink) []byte {
	w := state.NewWriter()
	c.SaveState(w)
	return w.Bytes()
}

// idle advances the rig's clock: a cycle in which the switch itself may
// or may not have run. The wires need no commit.
func (r *rig) idle() { r.cycle++ }

// clearFlags lowers every flag of both banks behind the switch's back.
func (r *rig) clearFlags() {
	for b := range r.sw.arr {
		clear(r.sw.arr[b])
		clear(r.sw.cred[b])
	}
}

// TestSkipIdleSettlesCreditsExactly: two switches send three flits down
// output 0 and go quiet with the credits still out. One then ticks every
// cycle; the other sleeps 40 cycles while the credits come back in three
// of them, the last skipped cycle among them. After SkipIdle the sleeper
// and its credit wire serialize to the twin's bytes — two credits in the
// counter, the last cycle's still on the wire — and again after the Tick
// that follows.
func TestSkipIdleSettlesCreditsExactly(t *testing.T) {
	const parkAt, parked = 10, 40
	returns := []uint64{parkAt + 5, parkAt + 20, parkAt + parked - 1}
	awake, asleep := newRig(t, 2, 2, 1, 4), newRig(t, 2, 2, 1, 4)
	for _, r := range []*rig{awake, asleep} {
		for r.cycle < parkAt {
			if r.cycle < 3 {
				r.send(0, 0, 0, 1)
			}
			r.sw.Tick(r.cycle)
			r.out[0].Take(r.cycle) // the credit is kept back
			r.idle()
		}
		if _, quiet := r.sw.NextWake(r.cycle); !quiet || r.sw.credits[0] != 1 {
			t.Fatalf("before the park: quiet = %v with %d credits, want a quiet switch with 1", quiet, r.sw.credits[0])
		}
		for r.cycle < parkAt+parked {
			if r == awake {
				r.sw.Tick(r.cycle)
			}
			if slices.Contains(returns, r.cycle) {
				r.outCr[0].Send(r.cycle, 1)
			}
			r.idle()
		}
	}
	same := func(when string, credits int, onWire uint32) {
		t.Helper()
		if !bytes.Equal(saved(asleep.sw), saved(awake.sw)) {
			t.Errorf("%s: the parked switch does not serialize to the every-cycle twin's bytes", when)
		}
		if !bytes.Equal(savedWire(asleep.outCr[0]), savedWire(awake.outCr[0])) {
			t.Errorf("%s: the parked switch's credit wire does not serialize to the twin's bytes", when)
		}
		if got, wire := asleep.sw.credits[0], asleep.outCr[0].Pending(); got != credits || wire != onWire {
			t.Errorf("%s: %d credits in the counter and %d on the wire, want %d and %d", when, got, wire, credits, onWire)
		}
	}
	if bytes.Equal(saved(asleep.sw), saved(awake.sw)) {
		t.Fatal("the sleeper matches before it is settled: the rig returns no credits while it sleeps")
	}
	asleep.sw.SkipIdle(parkAt, parked)
	same("after SkipIdle", 3, 1)
	for _, r := range []*rig{awake, asleep} {
		r.step(nil)
	}
	same("after the next Tick", 4, 0)
}

// TestFlagsAcrossWords: 35 input ports put the arrival flags on five
// loads, the last with three real bytes and five of padding; ten output
// lanes put the credit flags on two. Flits arrive on the ports either
// side of a load boundary and on the padding-adjacent one, credits on the
// lanes either side of the boundary and on the last. A Send raises the
// flag in the bank of the cycle it is visible in, and only that cycle's
// Tick reads and clears it.
func TestFlagsAcrossWords(t *testing.T) {
	r := newRig(t, 35, 5, 2, 4)
	for b := range r.sw.arr {
		if len(r.sw.arr[b]) != 40 || len(r.sw.cred[b]) != 16 {
			t.Fatalf("bank %d: flag runs of %d and %d bytes, want 40 and 16", b, len(r.sw.arr[b]), len(r.sw.cred[b]))
		}
	}
	r.step(nil)
	r.step(nil) // the two Ticks clear the flags every switch starts with
	arrivals := []struct{ port, vc int }{{7, 1}, {8, 0}, {34, 1}, {0, 0}}
	for _, a := range arrivals {
		r.send(a.port, a.vc, a.port%5, flit.EndpointID(a.port))
	}
	lanes := []int{7, 8, 9}
	for _, ol := range lanes {
		r.sw.creditIn[ol].Send(r.cycle, uint32(ol))
	}
	next, now := (r.cycle+1)&1, r.cycle&1
	for i, f := range r.sw.arr[next] {
		if want := slices.ContainsFunc(arrivals, func(a struct{ port, vc int }) bool { return a.port == i }); (f != 0) != want {
			t.Errorf("arrival flag %d = %d after the sends", i, f)
		}
	}
	for ol, f := range r.sw.cred[next] {
		if want := slices.Contains(lanes, ol); (f != 0) != want {
			t.Errorf("credit flag %d = %d after the sends", ol, f)
		}
	}
	if slices.Max(r.sw.arr[now]) != 0 || slices.Max(r.sw.cred[now]) != 0 {
		t.Errorf("the sends raised flags in the bank of their own cycle")
	}
	r.step(nil) // this cycle's Tick reads the other bank
	r.step(nil) // the switch takes what the flags name
	for b := range r.sw.arr {
		if slices.Max(r.sw.arr[b]) != 0 || slices.Max(r.sw.cred[b]) != 0 {
			t.Errorf("bank %d: flags left set after the Ticks: arrivals %v, credits %v", b, r.sw.arr[b], r.sw.cred[b])
		}
	}
	for _, a := range arrivals {
		if n := r.sw.lanes[a.port*2+a.vc].Len(); n != 1 {
			t.Errorf("input port %d channel %d buffers %d flits, want the one that arrived", a.port, a.vc, n)
		}
	}
	for _, ol := range lanes {
		if got := r.sw.credits[ol]; got != 4+ol {
			t.Errorf("output lane %d has %d credits, want %d", ol, got, 4+ol)
		}
	}
	var order []flit.EndpointID
	for c := 0; c < 4; c++ {
		r.step(&order)
	}
	slices.Sort(order)
	if want := []flit.EndpointID{0, 7, 8, 34}; !slices.Equal(order, want) {
		t.Errorf("delivered from ports %v, want %v", order, want)
	}
}

// TestStaleFlagsAreHarmless: set means look, not take. With every flag
// raised over empty wires a Tick does what a Tick over lowered flags
// does — it counts the cycle and nothing else: the two switches, each
// holding a flit that waits for a credit, serialize to the same bytes
// after every cycle — allocates nothing and clears the flags of its
// cycle's bank.
func TestStaleFlagsAreHarmless(t *testing.T) {
	stale, clean := newRig(t, 9, 9, 2, 1), newRig(t, 9, 9, 2, 1)
	for _, r := range []*rig{stale, clean} {
		r.send(4, 1, 2, 1)
		r.send(5, 0, 2, 2)
		r.step(nil)
		r.step(nil)
		r.sw.Tick(r.cycle) // the credit is kept back: one flit left, one waiting
		r.out[2].Take(r.cycle)
		r.idle()
	}
	cycle := func() {
		stale.sw.raiseFlags()
		stale.sw.Tick(stale.cycle)
		stale.idle()
		clean.sw.Tick(clean.cycle)
		clean.idle()
	}
	for c := 0; c < 4; c++ {
		cycle()
		if !bytes.Equal(saved(stale.sw), saved(clean.sw)) {
			t.Fatalf("cycle %d: a Tick over stale flags changed the switch", stale.cycle-1)
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per Tick over stale flags", n)
	}
	if !bytes.Equal(saved(stale.sw), saved(clean.sw)) {
		t.Error("Ticks over stale flags changed the switch")
	}
	if got := stale.sw.Stats(); got.BlockedCycles < 100 || got.FlitsRouted != 1 || stale.sw.BufferedFlits() != 1 {
		t.Errorf("stats %+v with %d flits buffered, want the waiting flit blocked in every cycle", got, stale.sw.BufferedFlits())
	}
	if b := (stale.cycle - 1) & 1; slices.Max(stale.sw.arr[b]) != 0 || slices.Max(stale.sw.cred[b]) != 0 {
		t.Error("the Tick left flags of its bank set")
	}
}

// TestLoadStateRaisesFlags: flags are not in a snapshot, so a load must
// leave the switch looking at every wire. Here they were all cleared
// behind its back while a flit sat on an input wire and credits on an
// output's; the Tick after the load takes both.
func TestLoadStateRaisesFlags(t *testing.T) {
	r := newRig(t, 9, 9, 1, 4)
	r.step(nil)
	r.send(8, 0, 3, 1)
	r.outCr[8].Send(r.cycle, 2)
	r.idle()
	blob := saved(r.sw)
	r.clearFlags()
	if err := r.sw.LoadState(state.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	r.step(nil)
	if r.sw.BufferedFlits() != 1 || r.sw.credits[8] != 6 {
		t.Errorf("after the load: %d flits buffered and %d credits on lane 8, want 1 and 6", r.sw.BufferedFlits(), r.sw.credits[8])
	}
}

// feeder is the world around a one-switch arena under an engine: it
// sends one flit on input 1 in cycle sendAt, holds that wire with a stuck
// fault over [stuckFrom, stuckTo), and consumes the outputs, returning
// their credits. Not Quiescable, so it is walked every cycle.
type feeder struct {
	in      *link.Link
	out     []*link.Link
	outCr   []*link.CreditLink
	sendAt  uint64
	stuck   [2]uint64
	gotAt   []uint64 // cycles a flit came out of the switch
	tookAt  []uint64 // cycles the held wire's Take would have returned the flit
	pending *flit.Flit
}

func (f *feeder) ComponentName() string { return "feeder" }
func (f *feeder) Tick(cycle uint64) {
	if cycle == f.stuck[0] {
		f.in.SetFaultAt(cycle, link.FaultStuck, f.stuck[1])
	}
	if cycle == f.stuck[1] {
		f.in.SetFaultAt(cycle, link.FaultNone, ^uint64(0))
	}
	if cycle == f.sendAt {
		if err := f.in.Send(cycle, f.pending); err != nil {
			panic(err)
		}
	}
	if f.in.Peek(cycle) != nil {
		f.tookAt = append(f.tookAt, cycle)
	}
	for o, l := range f.out {
		if l.Take(cycle) != nil {
			f.gotAt = append(f.gotAt, cycle)
			f.outCr[o].Send(cycle, 1)
		}
	}
}
func (f *feeder) Commit(cycle uint64) {}

// spyArena records the cycles the gate ticks its one switch in.
type spyArena struct {
	*Arena
	ticked []uint64
}

func (a *spyArena) TickList(idx []int, cycle uint64) {
	a.ticked = append(a.ticked, cycle)
	a.Arena.TickList(idx, cycle)
}

// underEngine builds feeder, a one-switch arena and a wire arena under an
// engine, gated with the platform's hooks or walked every cycle. The wire
// arena is no component, as a platform's is not: the feeder's Send holds
// the flit, and its SetFaultAt releases it.
func underEngine(t *testing.T, gated bool) (*engine.Engine, *feeder, *spyArena) {
	t.Helper()
	table := routing.NewTable(1)
	for o := 0; o < 2; o++ {
		if err := table.Set(0, flit.EndpointID(100+o), []int{o}); err != nil {
			t.Fatal(err)
		}
	}
	sws := &spyArena{Arena: NewArena("switches", 1)}
	sw, err := sws.New(defaultCfg("sw0", 0, 2, 2, table))
	if err != nil {
		t.Fatal(err)
	}
	wires := link.NewArena("wires", 4, 1)
	f := &feeder{pending: &flit.Flit{Kind: flit.HeadTail, Packet: flit.MakePacketID(1, 0), Src: 1, Dst: 100, PacketLen: 1}}
	var consumers []engine.Target
	for i := 0; i < 2; i++ {
		l, cr := wires.NewPair("in", "incr")
		if err := sw.ConnectInput(i, l, cr...); err != nil {
			t.Fatal(err)
		}
		f.in = l // input 1 in the end
		consumers = append(consumers, engine.Target{Name: "switches", Elem: 0})
	}
	for o := 0; o < 2; o++ {
		l, cr := wires.NewPair("out", "outcr")
		if err := sw.ConnectOutput(o, l, 4, cr...); err != nil {
			t.Fatal(err)
		}
		f.out, f.outCr = append(f.out, l), append(f.outCr, cr[0])
		consumers = append(consumers, engine.Target{Name: "feeder"})
	}
	e := engine.New()
	e.MustRegister(f)
	e.MustRegisterArena(sws)
	if gated {
		e.SetGated(true)
		arms, err := e.ArmTable(consumers)
		if err != nil {
			t.Fatal(err)
		}
		wires.SetHooks(arms.Hook())
	}
	return e, f, sws
}

// TestDeliveringCommitWakesConsumer: a stuck wire holds its flit across
// the fault window. The switch behind it parks — nobody polls the wire
// for it — and the release that finally puts the flit on view wakes it:
// it ticks in exactly the first cycle Take returns the flit, then while
// the flit crosses it, and otherwise only where the gate has to look.
// Before, during and after the hold its state is the bytes of a twin
// walked every cycle.
func TestDeliveringCommitWakesConsumer(t *testing.T) {
	const sendAt, stuckFrom, stuckTo, end = 5, 3, 15, 30
	e, f, spy := underEngine(t, true)
	twinE, twinF, twin := underEngine(t, false)
	for _, x := range []*feeder{f, twinF} {
		x.sendAt, x.stuck = sendAt, [2]uint64{stuckFrom, stuckTo}
	}
	for c := 0; c < end; c++ {
		e.Run(1)
		twinE.Run(1)
		if !bytes.Equal(saved(&spy.sws[0]), saved(&twin.sws[0])) {
			t.Fatalf("after cycle %d: the gated switch does not serialize to the every-cycle twin's bytes", c)
		}
	}
	// The fault clears in the Tick of cycle stuckTo, which releases the
	// flit, and stuckTo+1 is the first cycle it can be taken in.
	if want := []uint64{stuckTo + 1}; !slices.Equal(f.tookAt, want) || !slices.Equal(twinF.tookAt, want) {
		t.Fatalf("the flit was on view in cycles %v (twin %v), want %v", f.tookAt, twinF.tookAt, want)
	}
	// Cycles 0 and 1 clear the two banks of flags every switch starts
	// with; the Send the fault holds puts nothing on the wire and wakes
	// nobody; then the take, the forward, and the returned credit waking
	// nobody.
	if want := []uint64{0, 1, stuckTo + 1, stuckTo + 2}; !slices.Equal(spy.ticked, want) {
		t.Errorf("the gated switch ticked in cycles %v, want %v", spy.ticked, want)
	}
	if len(twin.ticked) != 0 {
		t.Errorf("the twin was ticked by element in cycles %v: it is not walked every cycle", twin.ticked)
	}
	if want := []uint64{stuckTo + 3}; !slices.Equal(f.gotAt, want) || !slices.Equal(twinF.gotAt, want) {
		t.Errorf("the flit left the switch in cycles %v (twin %v), want %v", f.gotAt, twinF.gotAt, want)
	}
}
