// Package switchfab implements the emulated NoC switch.
//
// The paper's platform emulates "any NoC packet-switching
// intercommunication scheme" with a network of parameterizable
// switches; the parameters it studies are the number of inputs, the
// number of outputs, and the size of the buffers. This switch is
// input-buffered and wormhole-switched: a head flit arbitrates for an
// output, the output stays locked to that input until the tail flit
// passes, and credit-based flow control guarantees buffers never
// overflow. Each output port has its own arbiter; route candidates come
// from a routing table and are narrowed to one port by a selection
// policy (first / packet-modulo / random / adaptive).
//
// Every port carries NumVC virtual channels. The unit of buffering,
// routing, locking and credit is the lane — one virtual channel of one
// port, flat index port*NumVC+vc — while the physical port still moves
// at most one flit per cycle. With one virtual channel a lane is a
// port, and the switch is the plain wormhole switch of the paper.
//
// A lane's buffer acts within the cycle: an arrival is pushed at once and
// a forwarded flit popped at once, and nothing is left for a commit
// phase. What the hardware reads from its registers at the clock edge,
// Tick reads from the occupancy mask, which holds each lane's occupancy
// at the start of the cycle: route computation, the lock holder's test
// and arbitration see only lanes that held a flit then, so a flit is
// never routed or forwarded in the cycle it arrives. One pass at the end
// of Tick counts the cycle on the lanes it touched and brings the mask
// up to date.
package switchfab

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"nocemu/internal/arb"
	"nocemu/internal/buffer"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/probe"
	"nocemu/internal/rng"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
)

// Config parameterizes one switch instance.
type Config struct {
	// Name is the engine component name.
	Name string
	// Node is this switch's identifier in the topology.
	Node topology.NodeID
	// NumIn and NumOut are the port counts.
	NumIn, NumOut int
	// NumVC is the virtual channels per port (0 means 1).
	NumVC int
	// BufDepth is the per-lane FIFO depth in flits.
	BufDepth int
	// Arb selects the output-port arbitration policy.
	Arb arb.Policy
	// Select picks among multiple route candidates.
	Select routing.Policy
	// Table is the routing table shared across the platform.
	Table *routing.Table
	// Seed seeds the switch-local LFSR (used by the Random policy).
	Seed uint32
}

// Stats is a snapshot of a switch's activity counters.
type Stats struct {
	// FlitsRouted counts flits forwarded through any output.
	FlitsRouted uint64
	// PacketsRouted counts tail flits forwarded (completed packets).
	PacketsRouted uint64
	// BlockedCycles counts input-head stalls: cycles in which a buffered
	// head-of-queue flit could not advance (lost arbitration or no
	// downstream credit). This is the congestion signal of the paper's
	// congestion counters.
	BlockedCycles uint64
	// Cycles counts evaluated and skipped cycles.
	Cycles uint64
}

// CongestionRate returns the fraction of flit-forwarding opportunities
// lost to blocking: blocked / (blocked + routed). Zero when idle.
func (s Stats) CongestionRate() float64 {
	den := s.BlockedCycles + s.FlitsRouted
	if den == 0 {
		return 0
	}
	return float64(s.BlockedCycles) / float64(den)
}

// Switch is one emulated NoC switch. Wire it with ConnectInput /
// ConnectOutput, then register it (and its links) with the engine —
// individually, or as part of an Arena (arena.go).
type Switch struct {
	cfg  Config
	lfsr *rng.LFSR

	// The input lanes: every lane's flits live in one slab, lane r's ring
	// at slots [r*BufDepth, (r+1)*BufDepth) (ring), next to a small record
	// per lane — one cache-linear block per switch.
	slots     []*flit.Flit
	lanes     []buffer.Queue
	inLinks   []*link.Link       // per input port
	creditOut []*link.CreditLink // per input lane: returns credits upstream

	outLinks  []*link.Link       // per output port
	creditIn  []*link.CreditLink // per output lane: credits from downstream
	credits   []int              // per output lane: available credits
	lock      []int              // per output lane: input lane holding the wormhole lock, or -1
	arbiters  []arb.Arbiter      // per output port, over the input lanes
	inRoute   []int              // per input lane: output lane of the packet in flight, or -1
	req       []uint64           // per output lane: mask of the input lanes requesting it (built and cleared within a Tick)
	wired     int
	wiredOuts int

	// Work follows these masks, not the lane count (DESIGN.md §14): a bit
	// per input lane in occ, dirty and moved, per output port in want. occ
	// holds the lanes occupied at the start of the cycle, the rest is
	// scratch of a cycle.
	masks []uint64 // backing of the four
	occ   []uint64 // the lane held a flit at the start of the cycle
	dirty []uint64 // a flit was pushed this cycle
	moved []uint64 // a flit was forwarded (popped) this cycle
	want  []uint64 // some occupied lane is routed to this port (set and cleared within a Tick)

	// flits counts the buffered flits; before is the count at the start
	// of the cycle tickedAt, the last this switch evaluated (never after a
	// load or a drain), for the readers that run after it in that cycle.
	flits, before int
	tickedAt      uint64

	// The wires say where to look (DESIGN.md §10, "Who tells whom"): a
	// byte per input port in arr and per output lane in cred, each run
	// padded to whole 8-byte loads, in two banks by cycle parity. A wire
	// sets the byte of bank (c+1)&1 when it is sent to in cycle c and
	// writes nothing else here; only this switch's Tick, SkipIdle and
	// LoadState read, clear or raise them, and Tick in cycle c touches
	// bank c&1 alone — so the senders of one Tick phase and this switch
	// never share a word, and the pooled walk needs no atomics (make race
	// is the check). Clear proves there is nothing to take, set means
	// look, so flags are not state (a load raises them all).
	arr  [2][]uint8
	cred [2][]uint8

	stats Stats

	// probe records route and buffer events; nil when tracing is off.
	probe *probe.Probe
}

// never stamps a switch that has evaluated no cycle of the timeline.
const never = ^uint64(0)

// New builds a switch from its configuration.
func New(cfg Config) (*Switch, error) {
	s := &Switch{}
	if err := initSwitch(s, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// initSwitch initializes a switch in place: arena elements live as
// values in the arena's backing slice.
func initSwitch(s *Switch, cfg Config) error {
	if cfg.Name == "" {
		return fmt.Errorf("switchfab: empty name")
	}
	if cfg.NumIn < 1 || cfg.NumOut < 1 {
		return fmt.Errorf("switchfab %s: %d inputs, %d outputs", cfg.Name, cfg.NumIn, cfg.NumOut)
	}
	if cfg.NumVC == 0 {
		cfg.NumVC = 1
	}
	if cfg.NumVC < 1 || cfg.NumVC > topology.MaxVCs {
		return fmt.Errorf("switchfab %s: %d virtual channels", cfg.Name, cfg.NumVC)
	}
	if cfg.BufDepth < 1 {
		return fmt.Errorf("switchfab %s: buffer depth %d", cfg.Name, cfg.BufDepth)
	}
	if cfg.Table == nil {
		return fmt.Errorf("switchfab %s: nil routing table", cfg.Name)
	}
	if !routing.ValidPolicy(cfg.Select) {
		return fmt.Errorf("switchfab %s: bad selection policy %q", cfg.Name, cfg.Select)
	}
	inLanes, outLanes := cfg.NumIn*cfg.NumVC, cfg.NumOut*cfg.NumVC
	words := arb.Words(inLanes)
	masks := make([]uint64, 3*words+arb.Words(cfg.NumOut))
	arrLen, credLen := (cfg.NumIn+7)&^7, (outLanes+7)&^7
	flags := make([]uint8, 2*(arrLen+credLen))
	*s = Switch{
		cfg:       cfg,
		lfsr:      rng.New(cfg.Seed),
		slots:     make([]*flit.Flit, inLanes*cfg.BufDepth),
		lanes:     make([]buffer.Queue, inLanes),
		inLinks:   make([]*link.Link, cfg.NumIn),
		creditOut: make([]*link.CreditLink, inLanes),
		outLinks:  make([]*link.Link, cfg.NumOut),
		creditIn:  make([]*link.CreditLink, outLanes),
		credits:   make([]int, outLanes),
		lock:      make([]int, outLanes),
		arbiters:  make([]arb.Arbiter, cfg.NumOut),
		inRoute:   make([]int, inLanes),
		req:       make([]uint64, outLanes*words),
		masks:     masks,
		occ:       masks[:words:words],
		dirty:     masks[words : 2*words : 2*words],
		moved:     masks[2*words : 3*words : 3*words],
		want:      masks[3*words:],
		tickedAt:  never,
	}
	for b := range s.arr {
		bank := flags[b*(arrLen+credLen) : (b+1)*(arrLen+credLen)]
		s.arr[b], s.cred[b] = bank[:arrLen:arrLen], bank[arrLen:]
	}
	s.raiseFlags()
	for r := range s.inRoute {
		s.inRoute[r] = -1
	}
	for o := range s.arbiters {
		a, err := arb.New(cfg.Arb, inLanes)
		if err != nil {
			return fmt.Errorf("switchfab %s: %w", cfg.Name, err)
		}
		s.arbiters[o] = a
	}
	for ol := range s.lock {
		s.lock[ol] = -1
	}
	return nil
}

// ComponentName implements engine.Component.
func (s *Switch) ComponentName() string { return s.cfg.Name }

// Node returns the switch's topology identifier.
func (s *Switch) Node() topology.NodeID { return s.cfg.Node }

// BufDepth returns the per-lane input buffer depth; the upstream sender
// must use it as its initial credit count on every virtual channel.
func (s *Switch) BufDepth() int { return s.cfg.BufDepth }

// ConnectInput wires input port i: flits arrive on in, and each virtual
// channel's credits are returned on its own wire of creditBack (one per
// channel, in channel order).
func (s *Switch) ConnectInput(i int, in *link.Link, creditBack ...*link.CreditLink) error {
	if i < 0 || i >= s.cfg.NumIn {
		return fmt.Errorf("switchfab %s: input %d out of range", s.cfg.Name, i)
	}
	if s.inLinks[i] != nil {
		return fmt.Errorf("switchfab %s: input %d already wired", s.cfg.Name, i)
	}
	if in == nil || !validCredits(creditBack, s.cfg.NumVC) {
		return fmt.Errorf("switchfab %s: input %d needs a link and %d credit wires", s.cfg.Name, i, s.cfg.NumVC)
	}
	s.inLinks[i] = in
	in.NotifyArrival([2]*uint8{&s.arr[0][i], &s.arr[1][i]})
	copy(s.creditOut[i*s.cfg.NumVC:], creditBack)
	s.wired++
	return nil
}

// ConnectOutput wires output port o: flits leave on out, each virtual
// channel's credits arrive on its own wire of creditIn, and
// initialCredits must equal the downstream per-channel buffer depth.
func (s *Switch) ConnectOutput(o int, out *link.Link, initialCredits int, creditIn ...*link.CreditLink) error {
	if o < 0 || o >= s.cfg.NumOut {
		return fmt.Errorf("switchfab %s: output %d out of range", s.cfg.Name, o)
	}
	if s.outLinks[o] != nil {
		return fmt.Errorf("switchfab %s: output %d already wired", s.cfg.Name, o)
	}
	if out == nil || !validCredits(creditIn, s.cfg.NumVC) {
		return fmt.Errorf("switchfab %s: output %d needs a link and %d credit wires", s.cfg.Name, o, s.cfg.NumVC)
	}
	if initialCredits < 1 {
		return fmt.Errorf("switchfab %s: output %d with %d credits", s.cfg.Name, o, initialCredits)
	}
	s.outLinks[o] = out
	for v, c := range creditIn {
		s.creditIn[o*s.cfg.NumVC+v] = c
		s.credits[o*s.cfg.NumVC+v] = initialCredits
		ol := o*s.cfg.NumVC + v
		c.NotifyArrival([2]*uint8{&s.cred[0][ol], &s.cred[1][ol]})
	}
	s.wiredOuts++
	return nil
}

// validCredits reports whether crs is one non-nil credit wire per
// virtual channel.
func validCredits(crs []*link.CreditLink, numVC int) bool {
	if len(crs) != numVC {
		return false
	}
	for _, c := range crs {
		if c == nil {
			return false
		}
	}
	return true
}

// CheckWired verifies every port is connected; the platform builder
// calls it before the first cycle.
func (s *Switch) CheckWired() error {
	if s.wired != s.cfg.NumIn {
		return fmt.Errorf("switchfab %s: %d of %d inputs wired", s.cfg.Name, s.wired, s.cfg.NumIn)
	}
	if s.wiredOuts != s.cfg.NumOut {
		return fmt.Errorf("switchfab %s: %d of %d outputs wired", s.cfg.Name, s.wiredOuts, s.cfg.NumOut)
	}
	return nil
}

// selectPort narrows route candidates to one output port according to
// the configured policy. Selection happens once per packet, when its
// head flit reaches the front of an input buffer (route-computation
// stage); vc is the virtual channel the packet will leave on, whose
// credits the adaptive policy compares.
func (s *Switch) selectPort(candidates []int, f *flit.Flit, vc int) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	switch s.cfg.Select {
	case routing.PacketModulo:
		return candidates[int(f.Packet.Seq())%len(candidates)]
	case routing.Random:
		return candidates[s.lfsr.Intn(len(candidates))]
	case routing.Adaptive:
		best := candidates[0]
		for _, c := range candidates[1:] {
			if s.credits[c*s.cfg.NumVC+vc] > s.credits[best*s.cfg.NumVC+vc] {
				best = c
			}
		}
		return best
	default: // routing.First
		return candidates[0]
	}
}

// raiseFlags makes the next two Ticks look at every wire. The padding
// stays clear for good.
func (s *Switch) raiseFlags() {
	for b := range s.arr {
		for i := range s.inLinks {
			s.arr[b][i] = 1
		}
		for ol := range s.creditIn {
			s.cred[b][ol] = 1
		}
	}
}

// Tick implements engine.Component: collect credits, accept arrivals,
// compute routes, arbitrate outputs, forward flits and count the cycle.
// No pass walks the ports: the first two walk this cycle's bank of the
// flags the wires set, eight to a load, the others the set bits of a
// mask.
func (s *Switch) Tick(cycle uint64) {
	numVC := s.cfg.NumVC
	s.tickedAt, s.before = cycle, s.flits
	arr, cred := s.arr[cycle&1], s.cred[cycle&1]
	// Collect returned credits first so this cycle's arbitration sees
	// them (they were sent last cycle).
	for w := 0; w < len(cred); w += 8 {
		m := binary.LittleEndian.Uint64(cred[w:])
		binary.LittleEndian.PutUint64(cred[w:], 0) // a store, not a call to clear
		for ; m != 0; m &= m - 1 {
			ol := w + bits.TrailingZeros64(m)>>3
			s.credits[ol] += int(s.creditIn[ol].Take(cycle))
		}
	}

	// Push arriving flits into the lane their channel tag names. Credit
	// flow control guarantees space; a full lane indicates a protocol bug
	// and is surfaced via panic in this internal invariant.
	for w := 0; w < len(arr); w += 8 {
		m := binary.LittleEndian.Uint64(arr[w:])
		binary.LittleEndian.PutUint64(arr[w:], 0)
		for ; m != 0; m &= m - 1 {
			i := w + bits.TrailingZeros64(m)>>3
			if f := s.inLinks[i].Take(cycle); f != nil { // nil: a stale flag, set means look
				if int(f.VC) >= numVC {
					panic(fmt.Sprintf("switchfab %s: input %d received a flit on virtual channel %d of %d", s.cfg.Name, i, f.VC, numVC))
				}
				r := i*numVC + int(f.VC)
				if !s.lanes[r].Push(s.ring(r), f) {
					panic(fmt.Sprintf("switchfab %s: push into full input lane %d (credit protocol violated)", s.cfg.Name, r))
				}
				s.dirty[r>>6] |= 1 << (r & 63)
			}
		}
	}

	// Route computation for heads newly at the front of their lanes: the
	// table gives the candidate ports and the channel of the hop. The same
	// pass builds the request masks: an input lane that held a flit at
	// the start of the cycle requests the one output lane it is routed
	// to, and marks that lane's port as wanted. A flit pushed this cycle
	// sits behind the head, or in a lane outside occ, so both masks hold
	// for the whole Tick.
	words := len(s.occ)
	for w, m := range s.occ {
		for ; m != 0; m &= m - 1 {
			r := w<<6 + bits.TrailingZeros64(m)
			if s.inRoute[r] == -1 {
				f := s.lanes[r].Peek(s.ring(r), 0)
				if !f.Kind.IsHead() {
					panic(fmt.Sprintf("switchfab %s: input lane %d has unrouted %s flit at head", s.cfg.Name, r, f.Kind))
				}
				candidates, class, err := s.cfg.Table.Route(s.cfg.Node, f.Dst)
				if err != nil {
					panic(fmt.Sprintf("switchfab %s: %v", s.cfg.Name, err))
				}
				vc := int(class)
				if vc >= numVC {
					panic(fmt.Sprintf("switchfab %s: table routes endpoint %d on virtual channel %d of %d", s.cfg.Name, f.Dst, vc, numVC))
				}
				s.inRoute[r] = s.selectPort(candidates, f, vc)*numVC + vc
			}
			o := s.inRoute[r]
			s.req[o*words+w] |= m & -m
			if numVC > 1 {
				o /= numVC
			}
			s.want[o>>6] |= 1 << (o & 63)
		}
	}

	// Per-output-port allocation and forwarding, one flit per port, over
	// the wanted ports only: an unwanted port has no winner, as Grant on
	// an empty mask moves no arbiter and a lock's holder is always routed
	// to the lane it holds. The port's lanes are offered the physical
	// channel in turn, from a start that rotates with the cycle so they
	// share it fairly. A lane under a wormhole lock offers its holder's
	// next flit if the holder's lane was occupied at the start of the
	// cycle; a free lane offers the arbitration winner among the heads
	// seeking it. Either offer stands only with a credit downstream —
	// checked after the grant, so the arbiter's priority moves on from a
	// credit-starved winner — and otherwise the turn passes to the next
	// lane: a stalled packet never holds the channel against another lane
	// that can move, which is what dateline classes rely on. With one lane
	// per port this is the plain wormhole switch: no arbitration while the
	// output is locked.
	rot := 0
	if numVC > 1 {
		rot = int(cycle % uint64(numVC))
	}
	for pw, pm := range s.want {
		s.want[pw] = 0
		for ; pm != 0; pm &= pm - 1 {
			o := pw<<6 + bits.TrailingZeros64(pm)
			lo := o * numVC
			winner, out := -1, lo+rot
			for k := 0; k < numVC; k++ {
				if h := s.lock[out]; h >= 0 {
					if s.occ[h>>6]>>(h&63)&1 != 0 && s.credits[out] > 0 {
						winner = h
						break
					}
				} else if w, ok := s.arbiters[o].Grant(s.req[out*words : (out+1)*words]); ok && s.credits[out] > 0 {
					winner = w
					break
				}
				if out++; out == lo+numVC {
					out = lo
				}
			}
			for i := lo * words; i < (lo+numVC)*words; i++ {
				s.req[i] = 0 // a word or two: a loop, not a call to clear
			}
			if winner < 0 || s.outLinks[o].Busy(cycle) {
				continue // stalled heads are counted as blocked in the sweep below
			}
			f := s.lanes[winner].Pop(s.ring(winner))
			if f == nil {
				panic(fmt.Sprintf("switchfab %s: pop failed on granted input lane %d", s.cfg.Name, winner))
			}
			f.VC = uint8(out - lo)
			if err := s.outLinks[o].Send(cycle, f); err != nil {
				panic(fmt.Sprintf("switchfab %s: %v", s.cfg.Name, err))
			}
			s.credits[out]--
			s.creditOut[winner].Send(cycle, 1)
			s.moved[winner>>6] |= 1 << (winner & 63)
			s.stats.FlitsRouted++
			if s.probe != nil { // the input port is a division away; skip it untraced
				s.probe.FlitRoute(cycle, uint64(f.Packet), uint16(f.Src), uint16(f.Dst), f.Index, uint16(f.VC), uint32(winner/numVC), uint32(o))
			}
			if f.Kind.IsTail() {
				s.stats.PacketsRouted++
				s.lock[out] = -1
				s.inRoute[winner] = -1
			} else {
				s.lock[out] = winner
			}
		}
	}

	// Every input lane whose head flit existed this cycle but did not
	// move is blocked: it lost arbitration, found no downstream credit,
	// or sits behind another packet's wormhole lock. Each stalled head
	// counts exactly once per cycle.
	for w, m := range s.occ {
		for m &^= s.moved[w]; m != 0; m &= m - 1 {
			s.lanes[w<<6+bits.TrailingZeros64(m)].MarkBlocked()
			s.stats.BlockedCycles++
		}
	}

	// Count the cycle on the lanes it pushed or popped, each first paid
	// the idle cycles since it was last counted at the size it held
	// through them — its size at the start of this cycle — and note which
	// hold a flit for the next. The other lanes are owed this cycle.
	for w, pushed := range s.dirty {
		popped := s.moved[w]
		m := pushed | popped
		if m == 0 {
			continue
		}
		s.dirty[w], s.moved[w] = 0, 0
		s.flits += bits.OnesCount64(pushed) - bits.OnesCount64(popped)
		occ := s.occ[w] &^ m
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			r := w<<6 + b
			l := &s.lanes[r]
			size := l.Len()
			l.SettleTo(size-int(pushed>>b&1)+int(popped>>b&1), s.stats.Cycles)
			l.Cycle(size)
			if size > 0 {
				occ |= 1 << b
			}
			if s.probe != nil && pushed>>b&1 != 0 {
				s.probe.FlitBuffer(cycle, uint64(l.Peek(s.ring(r), size-1).Packet), size)
			}
		}
		s.occ[w] = occ
	}
	s.stats.Cycles++
}

// ring returns input lane r's slots.
func (s *Switch) ring(r int) []*flit.Flit {
	d := s.cfg.BufDepth
	return s.slots[r*d : (r+1)*d : (r+1)*d]
}

// Commit implements engine.Component. A switch's lanes act within the
// cycle and Tick counts it, so there is nothing left to commit.
func (s *Switch) Commit(cycle uint64) {}

// settle pays every lane the idle cycles it is owed — the difference of
// the switch's cycle count and the lane's, which are counted, skipped,
// reset, saved and loaded together — wherever the lane counters leave
// the switch or the occupancy they integrate changes outside Tick.
func (s *Switch) settle() {
	for r := range s.lanes {
		l := &s.lanes[r]
		l.SettleTo(l.Len(), s.stats.Cycles)
	}
}

// NextWake implements engine.Quiescable. The switch is quiet when no
// lane is occupied and no flit arrives in the next cycle: with no heads
// there is nothing to route, arbitrate, forward or mark blocked, and
// credits that come back meanwhile wait on their wires for SkipIdle.
// Tick has already brought occ up to date with this cycle's pushes and
// pops, and every Send of the cycle has raised its flag in the next
// cycle's bank. Wormhole locks and per-lane routes may persist while
// quiet; they are frozen state, revisited when input wakes the switch:
// a flit sent to it while it is parked wakes it for the cycle the flit
// is visible in (DESIGN.md §10).
func (s *Switch) NextWake(cycle uint64) (uint64, bool) {
	for _, m := range s.occ {
		if m != 0 {
			return 0, false
		}
	}
	arr := s.arr[(cycle+1)&1]
	for w := 0; w < len(arr); w += 8 {
		if binary.LittleEndian.Uint64(arr[w:]) != 0 {
			return 0, false
		}
	}
	return ^uint64(0), true
}

// SkipIdle implements engine.Quiescable: each skipped cycle would have
// counted one switch cycle over empty lanes — which the lanes are paid
// for like any cycle Tick passed them over (settle) — and collected the
// credits sent the cycle before. The last skipped Tick runs in cycle
// from+n-1: what is visible by then moves to the counters, credits sent
// in it stay on the wire, and a settle leaves the switch where the
// every-cycle schedule has it, snapshot bytes included. The flags of
// both banks stay set for the Ticks to come.
func (s *Switch) SkipIdle(from, n uint64) {
	s.stats.Cycles += n
	for _, cred := range s.cred {
		for w := 0; w < len(cred); w += 8 {
			for m := binary.LittleEndian.Uint64(cred[w:]); m != 0; m &= m - 1 {
				ol := w + bits.TrailingZeros64(m)>>3
				s.credits[ol] += int(s.creditIn[ol].TakeBefore(from + n - 1))
			}
		}
	}
}

// Shift moves the cycle stamp along an engine rewind of delta cycles
// (engine.OnReset), so a cycle of the old timeline never passes for one
// of the new.
func (s *Switch) Shift(delta uint64) {
	if s.tickedAt != never {
		s.tickedAt += delta
	}
}

// Drain empties every input lane through release — the flits pushed in
// the last Tick included — and clears the wormhole locks and per-lane
// routes (end-of-run reclamation: a drained packet's tail never arrives,
// so the locks must be force-released). Credits and statistics are
// untouched.
func (s *Switch) Drain(release func(*flit.Flit)) {
	s.settle() // at the occupancy the owed cycles were spent at
	for r := range s.lanes {
		s.lanes[r].Drain(s.ring(r), release)
		s.inRoute[r] = -1
	}
	for o := range s.lock {
		s.lock[o] = -1
	}
	clear(s.masks)
	s.flits, s.before, s.tickedAt = 0, 0, never
}

// SetProbe attaches the tracing probe (nil disables tracing).
func (s *Switch) SetProbe(p *probe.Probe) { s.probe = p }

// Stats returns the activity counters.
func (s *Switch) Stats() Stats { return s.stats }

// BufferedFlits returns the occupancy summed over the input lanes, as of
// the end of the last evaluated cycle — the OCCUPANCY register, read
// between runs.
func (s *Switch) BufferedFlits() int { return s.flits }

// BufferedFlitsAt returns the occupancy summed over the input lanes as
// of the start of the given cycle, for readers that run after this
// switch in the cycle — the trace collector's boundary-sample source.
// Unlike the mean-occupancy statistic it carries no skipped-cycle debt,
// so it is exact whether or not the switch is parked.
func (s *Switch) BufferedFlitsAt(cycle uint64) int {
	if s.tickedAt == cycle {
		return s.before
	}
	return s.flits
}

// BufferStats returns the buffer statistics per input lane.
func (s *Switch) BufferStats() []buffer.Stats {
	s.settle()
	out := make([]buffer.Stats, len(s.lanes))
	for r := range s.lanes {
		out[r] = s.lanes[r].Stats()
	}
	return out
}

// ResetStats clears the activity counters (and lane counters, the idle
// cycles they are owed included) without disturbing in-flight traffic,
// so measurements can exclude warm-up.
func (s *Switch) ResetStats() {
	s.stats = Stats{}
	for r := range s.lanes {
		s.lanes[r].Reset()
	}
}
