package switchfab

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"nocemu/internal/buffer"
	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// The switch counts a lane only in a cycle that pushed or popped it and
// owes it the other cycles until somebody looks (DESIGN.md §14, "Work
// follows occupancy"). These tests pin that the debt is invisible: in
// every counter, in the bytes of a snapshot, and across the word
// boundary of the lane masks; and that a lane acting within the cycle
// still behaves as a buffer written at the clock edge ("Buffers act in
// the cycle").

// trickle feeds a rig a seeded trickle of one- to three-flit packets
// from its first ins input ports to its first outs output ports: at most
// one flit per port per cycle, a packet's flits in order on one channel,
// and never more flits on a lane than the switch has returned credits
// for.
type trickle struct {
	r      *rig
	rng    *rand.Rand
	outs   int
	credit []int        // per input lane: buffer slots known free
	next   []*flit.Flit // per feeding input port: the flit to send next, nil between packets
}

func newTrickle(r *rig, seed int64, ins, outs int) *trickle {
	d := &trickle{r: r, rng: rand.New(rand.NewSource(seed)), outs: outs,
		credit: make([]int, len(r.sw.lanes)), next: make([]*flit.Flit, ins)}
	for l := range d.credit {
		d.credit[l] = r.sw.BufDepth()
	}
	return d
}

// collect reads the credits the switch returned last cycle; call it once
// per cycle, before feed.
func (d *trickle) collect() {
	for i, crs := range d.r.inCr {
		for v, c := range crs {
			d.credit[i*len(crs)+v] += int(c.Take(d.r.cycle))
		}
	}
}

// feed stages this cycle's flits and returns them; with start false it
// only finishes the packets under way.
func (d *trickle) feed(start bool) (sent []*flit.Flit) {
	numVC := d.r.sw.cfg.NumVC
	for i := range d.next {
		if d.next[i] == nil && start && d.rng.Intn(4) == 0 {
			d.next[i] = &flit.Flit{Kind: flit.Head, Packet: flit.MakePacketID(flit.EndpointID(i), d.r.cycle), Src: flit.EndpointID(i),
				Dst: flit.EndpointID(100 + d.rng.Intn(d.outs)), PacketLen: uint16(1 + d.rng.Intn(3)), VC: uint8(d.rng.Intn(numVC))}
		}
		f := d.next[i]
		if f == nil || d.credit[i*numVC+int(f.VC)] == 0 {
			continue
		}
		d.next[i] = nil
		if last := f.Index+1 == f.PacketLen; last && f.Kind == flit.Head {
			f.Kind = flit.HeadTail
		} else if last {
			f.Kind = flit.Tail
		} else {
			body := *f
			body.Kind, body.Index = flit.Body, f.Index+1
			d.next[i] = &body
		}
		d.credit[i*numVC+int(f.VC)]--
		d.r.sendFlit(i, f)
		sent = append(sent, f)
	}
	return sent
}

func saved(sw *Switch) []byte {
	w := state.NewWriter()
	sw.SaveState(w)
	return w.Bytes()
}

// TestLazyLaneStatisticsAreInvisible runs two rigs under the same sparse
// stimulus. The eager one reads BufferStats after every cycle, so no
// lane is ever owed more than the cycle just committed; the lazy one is
// left alone to the end, but for a snapshot round trip in mid-run. Both
// reset their statistics after step 14 — under a lane that holds a
// flit, which is where the maximum occupancy has to come back without a
// push — and, in the gated variant, both sleep 1000 cycles through
// SkipIdle the way the clock gate parks a quiet switch. Counters and
// snapshot bytes must agree at the end, and the last input lane, which
// has output port 2 and its single credit to itself, must show the
// history worked out by hand below.
func TestLazyLaneStatisticsAreInvisible(t *testing.T) {
	for _, tc := range []struct {
		name   string
		numVC  int
		parked uint64
	}{{"one channel", 1, 0}, {"two channels", 2, 0}, {"parked in the middle", 1, 1000}} {
		t.Run(tc.name, func(t *testing.T) {
			const pinned, steps, resetAt, parkAt, reloadAt = 3, 80, 15, 45, 53
			eager, lazy := newRig(t, 4, 3, tc.numVC, 1), newRig(t, 4, 3, tc.numVC, 1)
			de, dl := newTrickle(eager, 7, pinned, 2), newTrickle(lazy, 7, pinned, 2)
			for step := 0; step < steps; step++ {
				for _, d := range []*trickle{de, dl} {
					r := d.r
					switch step {
					case resetAt:
						r.sw.ResetStats()
					case parkAt:
						if _, quiet := r.sw.NextWake(r.cycle); !quiet {
							t.Fatalf("switch not quiet at step %d: the stimulus windows need retuning", step)
						}
						r.sw.SkipIdle(r.cycle, tc.parked)
						r.cycle += tc.parked
					case reloadAt:
						if r == lazy {
							if err := r.sw.LoadState(state.NewReader(saved(r.sw))); err != nil {
								t.Fatal(err)
							}
						}
					}
					d.collect()
					d.feed(step < 14 || step >= 50 && step < 64)
					// The pinned lane: four packets before the reset, two after.
					if slices.Contains([]int{10, 11, 12, 13, 50, 51}, step) {
						r.send(pinned, 0, 2, 9)
					}
					r.step(nil)
					if r == eager {
						r.sw.BufferStats()
					}
				}
			}
			if a, b := eager.sw.Stats(), lazy.sw.Stats(); a != b {
				t.Errorf("switch stats: eager %+v, lazy %+v", a, b)
			}
			if eager.sw.Stats().FlitsRouted < 20 || eager.sw.Stats().BlockedCycles < 5 {
				t.Errorf("stats %+v: the stimulus is too thin to tell anything", eager.sw.Stats())
			}
			if a, b := eager.sw.BufferStats(), lazy.sw.BufferStats(); !slices.Equal(a, b) {
				t.Errorf("buffer stats:\neager %+v\nlazy  %+v", a, b)
			}
			if !bytes.Equal(saved(eager.sw), saved(lazy.sw)) {
				t.Error("snapshot bytes differ between the eagerly and the lazily settled switch")
			}
			// With one credit a flit leaves every other cycle (s: lane size
			// after the commit of the step, b: head blocked in it):
			//   sent at 10..13: step 11 s=1, 12 s=1, 13 s=2 b, 14 s=2, reset,
			//   15 s=2 b, 16 s=1, 17 s=1 b, 18 s=0 — two pops, two stalls, and
			//   a maximum of 2 that no push brought back;
			//   sent at 50, 51: step 51 s=1, 52 s=1, 53 s=1 b, 54 s=0.
			cycles := uint64(steps-resetAt) + tc.parked
			want := buffer.Stats{Pushes: 2, Pops: 4, Blocked: 3, Cycles: cycles, MaxOccupancy: 2,
				MeanOccupancy: 7 / float64(cycles)}
			if got := lazy.sw.BufferStats()[pinned*tc.numVC]; got != want {
				t.Errorf("pinned lane: %+v, want %+v", got, want)
			}
		})
	}
}

// TestLaneMasksAcrossWords: 70 input lanes put the lane masks on two
// words. Lanes 10 (first word) and 69 (second) stream to output 0 while
// lane 66 holds output 1's wormhole lock with an empty buffer, its body
// flits late: port 1 is then wanted by nobody and skipped, which must
// look exactly like offering it and finding nothing — no flit out, no
// arbiter movement, nobody blocked — and the lock must still be there
// for the rest of the packet.
func TestLaneMasksAcrossWords(t *testing.T) {
	r := newRig(t, 35, 2, 2, 4)
	part := func(kind flit.Kind, index uint16) *flit.Flit {
		return &flit.Flit{Kind: kind, Packet: flit.MakePacketID(66, 0), Src: 66, Dst: 101, PacketLen: 3, Index: index}
	}
	var order []flit.EndpointID
	r.sendFlit(33, part(flit.Head, 0))
	for c := 0; c < 3; c++ {
		r.step(&order)
	}
	if r.sw.lock[2] != 66 || r.sw.lanes[66].Len() != 0 {
		t.Fatalf("lock[2] = %d, lane 66 holds %d flits: want the head gone and the lock held", r.sw.lock[2], r.sw.lanes[66].Len())
	}
	arbiter := func() []byte {
		w := state.NewWriter()
		r.sw.arbiters[1].SaveState(w)
		return w.Bytes()
	}
	before, blocked := arbiter(), r.sw.Stats().BlockedCycles
	for c := 0; c < 9; c++ {
		if c < 3 {
			r.send(5, 0, 0, 10)
			r.send(34, 1, 0, 69)
		}
		r.step(&order)
	}
	if want := []flit.EndpointID{66, 10, 69, 10, 69, 10, 69}; !slices.Equal(order, want) {
		t.Errorf("output order by input lane = %v, want %v", order, want)
	}
	if got := r.sw.Stats().BlockedCycles - blocked; got != 5 {
		t.Errorf("%d blocked cycles, want 5: one of lanes 10 and 69 waits in each cycle but the last, lane 66 never", got)
	}
	if !bytes.Equal(arbiter(), before) {
		t.Error("output 1's arbiter moved while nobody requested the port")
	}
	order = order[:0]
	r.sendFlit(33, part(flit.Body, 1))
	r.step(&order)
	r.sendFlit(33, part(flit.Tail, 2))
	for c := 0; c < 4; c++ {
		r.step(&order)
	}
	if want := []flit.EndpointID{66, 66}; !slices.Equal(order, want) || r.sw.lock[2] != -1 {
		t.Errorf("rest of the packet: %v out, lock[2] = %d, want %v and the lock released", order, r.sw.lock[2], want)
	}
}

// TestDrainAfterTickReleasesArrival: a Drain after a Tick releases the
// flit that arrived in that Tick along with the flits buffered before
// it, and leaves nothing behind that the next cycle would act on.
func TestDrainAfterTickReleasesArrival(t *testing.T) {
	r := newRig(t, 2, 1, 1, 1)
	r.send(0, 0, 0, 1)
	r.step(nil)
	r.send(0, 0, 0, 2)
	r.step(nil)
	r.send(1, 0, 0, 3)
	r.step(nil) // packet 1 left on the only credit, 2 is buffered, 3 on its wire
	// Packet 3 arrives in this Tick; packet 2 stalls, the credit is not
	// back. Packet 1 is taken off its wire, as every cycle's consumer does.
	r.sw.Tick(r.cycle)
	var order []flit.EndpointID
	if f := r.out[0].Take(r.cycle); f != nil {
		order = append(order, f.Src)
	}
	if r.sw.BufferedFlits() != 2 {
		t.Fatalf("%d flits buffered after the Tick, want 2: packet 2 and the arrival", r.sw.BufferedFlits())
	}
	released := 0
	r.sw.Drain(func(*flit.Flit) { released++ })
	if released != 2 {
		t.Errorf("released %d flits, want 2: one buffered, one that arrived in the Tick", released)
	}
	if _, quiet := r.sw.NextWake(r.cycle); !quiet {
		t.Error("drained switch is not quiet")
	}
	r.cycle++
	want := r.sw.Stats()
	for c := 0; c < 3; c++ {
		r.step(&order)
	}
	want.Cycles += 3
	if got := r.sw.Stats(); got != want || want.FlitsRouted != 1 || want.BlockedCycles != 1 {
		t.Errorf("stats after the drain %+v, want %+v with 1 flit routed and 1 stall", got, want)
	}
	if bs := r.sw.BufferStats(); bs[0].Pushes != 2 || bs[1].Pushes != 1 || r.sw.BufferedFlits() != 0 {
		t.Errorf("lanes pushed %d and %d flits and hold %d, want 2, 1 (the drained arrival) and 0",
			bs[0].Pushes, bs[1].Pushes, r.sw.BufferedFlits())
	}
	if !slices.Equal(order, []flit.EndpointID{1}) {
		t.Errorf("flits out from the drain on: %v, want only packet 1, on its wire since before", order)
	}
}

// TestArrivalsWaitForTheNextCycle: a lane's buffer acts within the
// cycle, but a Tick works from the lanes occupied at its start. So a
// flit pushed into an empty lane is neither routed nor forwarded in the
// cycle it arrives, and a wormhole lock's holder whose lane was empty at
// the start of the cycle does not forward the body flit that arrives in
// it; both go out one cycle later.
func TestArrivalsWaitForTheNextCycle(t *testing.T) {
	r := newRig(t, 1, 1, 1, 4)
	part := func(kind flit.Kind, index uint16) *flit.Flit {
		return &flit.Flit{Kind: kind, Packet: flit.MakePacketID(7, 0), Src: 7, Dst: 100, PacketLen: 2, Index: index}
	}
	// tick steps one cycle and reports whether the switch sent a flit.
	tick := func() bool {
		r.step(nil)
		return r.out[0].Peek(r.cycle) != nil
	}
	r.sendFlit(0, part(flit.Head, 0))
	r.idle()
	if sent := tick(); sent || r.sw.inRoute[0] != -1 || r.sw.lanes[0].Len() != 1 {
		t.Fatalf("head's arrival cycle: sent %v, route %d, %d buffered; want nothing sent, no route, 1 buffered", sent, r.sw.inRoute[0], r.sw.lanes[0].Len())
	}
	if sent := tick(); !sent || r.sw.lock[0] != 0 {
		t.Fatalf("cycle after the head's arrival: sent %v, lock %d; want the head sent and the lock held by lane 0", sent, r.sw.lock[0])
	}
	r.sendFlit(0, part(flit.Tail, 1))
	r.idle()
	if sent := tick(); sent || r.sw.lanes[0].Len() != 1 {
		t.Fatalf("tail's arrival cycle: sent %v, %d buffered; want the holder to wait", sent, r.sw.lanes[0].Len())
	}
	if blocked := r.sw.Stats().BlockedCycles; blocked != 0 {
		t.Errorf("%d blocked cycles: a lane empty at the start of a cycle has no head to block", blocked)
	}
	if sent := tick(); !sent || r.sw.lock[0] != -1 {
		t.Errorf("cycle after the tail's arrival: sent %v, lock %d; want the tail sent and the lock released", sent, r.sw.lock[0])
	}
}

// laneModel is the reference two-phase buffer of one lane: pushes and
// pops of a cycle take effect when it ends, and every cycle — skipped
// ones too — adds the size it ends with to the occupancy sum.
type laneModel struct {
	size  int
	stats buffer.Stats
	sum   uint64
}

func (m *laneModel) cycle(push, pop bool) {
	if m.size > 0 && !pop {
		m.stats.Blocked++
	}
	if pop {
		m.size--
		m.stats.Pops++
	}
	if push {
		m.size++
		m.stats.Pushes++
	}
	m.skip(1)
}

func (m *laneModel) skip(n uint64) {
	m.stats.Cycles += n
	m.sum += uint64(m.size) * n
	if n > 0 {
		m.stats.MaxOccupancy = max(m.stats.MaxOccupancy, m.size)
	}
	m.stats.MeanOccupancy = 0
	if m.stats.Cycles > 0 {
		m.stats.MeanOccupancy = float64(m.sum) / float64(m.stats.Cycles)
	}
}

// TestBufferStatsMatchTwoPhaseModel drives a two-channel switch with a
// seeded trickle, broken by statistics resets and by gaps the switch
// sleeps through in SkipIdle, and holds every lane's BufferStats to the
// reference two-phase model, fed from outside: a flit sent in one cycle
// is a push in the next, a flit on an output wire a pop of the lane it
// entered by.
func TestBufferStatsMatchTwoPhaseModel(t *testing.T) {
	r := newRig(t, 4, 3, 2, 2)
	d := newTrickle(r, 11, 4, 3)
	models := make([]laneModel, len(r.sw.lanes))
	laneOf := map[*flit.Flit]int{}
	var arriving []int // lanes whose flit is visible in the next cycle
	skips, forwarded := 0, 0
	for step := 0; step < 400; step++ {
		switch {
		case step%97 == 60:
			r.sw.ResetStats()
			for i := range models {
				models[i].stats, models[i].sum = buffer.Stats{}, 0
			}
		case step%50 == 49:
			if _, quiet := r.sw.NextWake(r.cycle); quiet && len(arriving) == 0 {
				n := uint64(5 + step%7)
				r.sw.SkipIdle(r.cycle, n)
				r.cycle += n
				skips++
				for i := range models {
					models[i].skip(n)
				}
			}
		}
		pushed := make([]bool, len(models))
		for _, l := range arriving {
			pushed[l] = true
		}
		arriving = arriving[:0]
		d.collect()
		for _, f := range d.feed(step%50 < 35) {
			l := int(f.Src)*r.sw.cfg.NumVC + int(f.VC)
			laneOf[f] = l
			arriving = append(arriving, l)
		}
		popped := make([]bool, len(models))
		r.step(nil)
		for _, w := range r.out {
			if f := w.Peek(r.cycle); f != nil { // sent in the cycle just stepped
				popped[laneOf[f]] = true
				forwarded++
			}
		}
		for i := range models {
			models[i].cycle(pushed[i], popped[i])
		}
		if step%13 == 0 || step == 399 {
			for i, got := range r.sw.BufferStats() {
				if got != models[i].stats {
					t.Fatalf("step %d lane %d: %+v, model %+v", step, i, got, models[i].stats)
				}
			}
		}
	}
	if forwarded < 300 || skips < 4 {
		t.Errorf("%d flits forwarded, %d sleeps: the stimulus is too thin to tell anything", forwarded, skips)
	}
}

// TestStepAllocatesNothing: the masks are allocated with the switch; a
// cycle allocates nothing, idle or loaded.
func TestStepAllocatesNothing(t *testing.T) {
	r := newRig(t, 5, 5, 2, 4)
	ring := make([]flit.Flit, 4*len(r.in))
	for _, load := range []int{0, 1, len(r.in)} {
		if n := testing.AllocsPerRun(100, func() {
			r.loadRing(ring, int(r.cycle), load)
			r.step(nil)
		}); n != 0 {
			t.Errorf("%v allocations per cycle with %d inputs sending", n, load)
		}
	}
	if r.sw.Stats().FlitsRouted < 500 {
		t.Errorf("%d flits routed: the loaded runs did not load the switch", r.sw.Stats().FlitsRouted)
	}
}

// TestLoadStateRejectsLockWithoutRoute: a section whose wormhole lock
// names an input lane routed elsewhere, or nowhere, used to load and
// then panic in Tick ("pop failed on granted input lane": the lane won
// both the locked port and the port it was bound for).
func TestLoadStateRejectsLockWithoutRoute(t *testing.T) {
	for _, route := range []int{-1, 1} {
		r := newRig(t, 1, 2, 1, 4)
		r.send(0, 0, 1, 1)
		r.step(nil)
		r.step(nil) // buffered on lane 0, bound for output 1
		r.sw.lock[0], r.sw.inRoute[0] = 0, route
		err := newRig(t, 1, 2, 1, 4).sw.LoadState(state.NewReader(saved(r.sw)))
		var lre *LockRouteError
		if !errors.As(err, &lre) || *lre != (LockRouteError{Switch: "sw0", OutLane: 0, InLane: 0, Route: route}) {
			t.Errorf("route %d: LoadState = %v, want a LockRouteError for lock[0] = 0", route, err)
		}
		r.sw.lock[0], r.sw.inRoute[0] = -1, route
		if err := newRig(t, 1, 2, 1, 4).sw.LoadState(state.NewReader(saved(r.sw))); err != nil {
			t.Errorf("route %d without the lock: %v", route, err)
		}
	}
}

// TestLoadStateRejectsUnroutableQueue: a section whose lane would put a
// flit the next Tick cannot route at the front of an unrouted lane — a
// body flit behind a tail, or a head for an endpoint the table does not
// know — is rejected at load instead of panicking in Tick. The tail of
// the packet at the front loads.
func TestLoadStateRejectsUnroutableQueue(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second flit.Flit
		ok            bool
	}{
		{"tail of the packet", flit.Flit{Kind: flit.Head, Dst: 100, PacketLen: 2}, flit.Flit{Kind: flit.Tail, Dst: 100, PacketLen: 2, Index: 1}, true},
		{"body behind a tail", flit.Flit{Kind: flit.HeadTail, Dst: 100, PacketLen: 1}, flit.Flit{Kind: flit.Body, Dst: 100, PacketLen: 3, Index: 1}, false},
		{"head nobody routes", flit.Flit{Kind: flit.HeadTail, Dst: 100, PacketLen: 1}, flit.Flit{Kind: flit.HeadTail, Dst: 99, PacketLen: 1}, false},
	} {
		r := newRig(t, 1, 1, 1, 4)
		for _, f := range []*flit.Flit{&tc.first, &tc.second} {
			r.sw.lanes[0].Push(r.sw.ring(0), f)
		}
		err := newRig(t, 1, 1, 1, 4).sw.LoadState(state.NewReader(saved(r.sw)))
		if (err == nil) != tc.ok {
			t.Errorf("%s: LoadState = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
