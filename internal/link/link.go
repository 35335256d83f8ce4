// Package link models the point-to-point wires of the emulated NoC.
//
// A Link is a registered (one-cycle latency) unidirectional connection
// carrying at most one flit per cycle, matching a physical inter-switch
// link on the FPGA. A CreditLink is the matching reverse wire on which
// the downstream buffer returns credits; together they implement
// credit-based flow control: the sender holds a credit counter equal to
// the free space in the downstream input buffer and only transmits when
// a credit is available, so buffers can never overrun.
//
// A wire is a pair of cycle-parity slots, the FPGA's output register:
// Send in cycle c writes slot (c+1)&1 and Take in cycle c reads slot
// c&1, so producer and consumer never write the same word in one cycle
// and nothing commits a wire. A fault acts on the write side: Send
// holds or flips the flit it is given, and SetFault judges the flits
// of the cycle it is called in. Per-cycle counters are derived.
package link

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/probe"
)

// FaultMode selects an injected fault on a link (fault injection for
// functional validation of the emulated NoC).
type FaultMode uint8

const (
	// FaultNone is normal operation.
	FaultNone FaultMode = iota
	// FaultStuck holds the wire: a sent flit is not transferred until
	// the fault clears. Upstream sees a busy wire and stalls — the
	// credit protocol preserves every flit.
	FaultStuck
	// FaultCorrupt flips payload bits of every transferred flit; the
	// receiving network interface detects the checksum mismatch.
	FaultCorrupt
)

// never is the visible cycle of an empty slot.
const never = ^uint64(0)

// Link is a one-flit-per-cycle registered wire. What the wires of a
// platform share — names, clock, hook, drop handler — lives in their
// Arena.
type Link struct {
	// slot[p] holds the flit visible in the cycles of parity p; vis[p] is
	// the cycle the flit last put there is visible in (never: none). Take
	// clears a slot but not its vis: the counters and SaveState read it.
	slot [2]*flit.Flit
	vis  [2]uint64
	// flits counts the flits put on the wire; BUSY subtracts busyBase
	// and those not yet past their visible cycle, CYCLES is the clock's
	// distance from cycleBase. ResetStats and LoadState set the bases.
	flits, busyBase, cycleBase, overruns uint64
	fs                                   *faultState // nil until the wire first faults
	arrived                              [2]*uint8   // the reader's flag per parity bank; nil when it polls
	arena                                *Arena
	elem                                 int32 // the wire's index in its arena; what the hook is told
	fault                                FaultMode
}

// faultState is what a wire keeps once a fault has been set on it, off
// the struct every Send and Take touches: most wires never fault.
type faultState struct {
	held *flit.Flit // kept off the wire by a stuck fault
	// heldAt is the cycle the held flit was held in (HELD adds the cycles
	// since), or, once released, the cycle it is visible in.
	heldAt uint64
	// until is the first cycle whose flits the mode does not judge at
	// Send, left to SetFaultAt: a fault controller's next window edge.
	until                 uint64
	corrupted, heldCycles uint64
}

// ComponentName returns the link's instance name.
func (l *Link) ComponentName() string { return l.arena.names[l.elem] }

// Send puts a flit on the wire in the given cycle, visible in the next;
// a second Send in one cycle is an error (two drivers on one wire). A
// flit left in the slot since two cycles back was never taken: it is an
// overrun, handed to the drop handler — never, under correct flow
// control, and tests assert Overruns()==0. A stuck wire holds the flit
// instead, and a corrupting one flips it on the way.
func (l *Link) Send(cycle uint64, f *flit.Flit) error {
	if f == nil {
		return fmt.Errorf("link %s: send nil flit", l.ComponentName())
	}
	p := (cycle + 1) & 1
	if old := l.slot[p]; old != nil {
		if l.vis[p] == cycle+1 {
			return fmt.Errorf("link %s: double drive in one cycle", l.ComponentName())
		}
		l.overruns++
		l.probe().FlitDrop(cycle, uint64(old.Packet), uint16(old.Src), uint16(old.Dst), old.Index)
		l.slot[p] = nil // the handler owns it now, even if a stuck fault holds f
		if l.arena.onDrop != nil {
			l.arena.onDrop(old, cycle)
		}
	}
	if fs := l.fs; l.fault != FaultNone && cycle < fs.until {
		if l.fault == FaultCorrupt {
			l.corrupt(cycle, f)
		} else if fs.held == nil {
			fs.held, fs.heldAt = f, cycle
			return nil
		}
	}
	l.put(p, cycle+1, f)
	return nil
}

// corrupt flips the payload of a flit the wire carries from the given
// cycle on.
func (l *Link) corrupt(cycle uint64, f *flit.Flit) {
	f.Payload = ^f.Payload
	l.fs.corrupted++
	l.probe().FaultFire(cycle, uint64(f.Packet), uint16(f.Src), uint16(f.Dst), f.Index)
}

// put writes a flit into slot p, visible in cycle vis, and tells the
// reader.
func (l *Link) put(p, vis uint64, f *flit.Flit) {
	l.slot[p], l.vis[p] = f, vis
	l.flits++
	if a := l.arrived[p]; a != nil {
		*a = 1
	}
	if h := l.arena.send; h != nil && *h != nil {
		(*h)(int(l.elem))
	}
}

// NotifyArrival makes every flit put into slot p raise *flags[p]. The
// consuming switch owns the bytes; the wire only ever sets them.
func (l *Link) NotifyArrival(flags [2]*uint8) { l.arrived = flags }

// Busy reports whether the wire cannot take a flit in the given cycle:
// one was already sent in it, or a stuck fault holds one.
func (l *Link) Busy(cycle uint64) bool {
	p := (cycle + 1) & 1
	return (l.slot[p] != nil && l.vis[p] == cycle+1) || (l.fs != nil && l.fs.held != nil)
}

// Peek returns the flit visible in the given cycle, if any, without
// consuming it.
func (l *Link) Peek(cycle uint64) *flit.Flit {
	if l.vis[cycle&1] != cycle {
		return nil
	}
	return l.slot[cycle&1]
}

// Take consumes the flit visible in the given cycle. It returns nil if
// there is none or it was already taken.
func (l *Link) Take(cycle uint64) *flit.Flit {
	f := l.Peek(cycle)
	if f != nil {
		l.slot[cycle&1] = nil
	}
	return f
}

// SetFault switches the link's fault mode between runs, for every flit
// sent from the clock's cycle on; FaultNone restores normal operation,
// and a held flit resumes, visible in the next cycle.
func (l *Link) SetFault(m FaultMode) { l.SetFaultAt(l.arena.now(), m, never) }

// SetFaultAt is SetFault from a Tick of the given cycle behind every
// sender's (a fault controller's), for a mode that may change at cycle
// until, whose flits it leaves to the next SetFaultAt. It judges the
// flit sent in its own cycle that no mode judged, as Send would have.
func (l *Link) SetFaultAt(cycle uint64, m FaultMode, until uint64) {
	fs := l.fs
	if fs == nil {
		if m == FaultNone {
			return // never faulted: nothing held, nothing to judge
		}
		fs = &faultState{}
		l.fs = fs
	}
	p := (cycle + 1) & 1
	unjudged := l.slot[p] != nil && l.vis[p] == cycle+1 && (l.fault == FaultNone || cycle >= fs.until)
	l.fault, fs.until = m, until
	switch {
	case m == FaultStuck:
		if unjudged && fs.held == nil {
			fs.held, fs.heldAt, l.slot[p], l.vis[p] = l.slot[p], cycle, nil, never
			l.flits-- // not on the wire after all
		}
		return
	case fs.held != nil:
		f := fs.held
		fs.heldCycles += cycle - fs.heldAt
		fs.held, fs.heldAt = nil, cycle+1
		l.put(p, cycle+1, f)
		unjudged = true
	}
	if unjudged && m == FaultCorrupt {
		l.corrupt(cycle, l.slot[p])
	}
}

// AwaitSetFault leaves every flit sent from now on to the next
// SetFaultAt of its cycle: a restored controller's window may turn.
func (l *Link) AwaitSetFault() {
	if l.fs != nil {
		l.fs.until = 0
	}
}

// SetProbe attaches the tracing probe (nil disables tracing). Probes
// record only drops and fault fires: the arena keeps them, in a slice
// allocated with the first.
func (l *Link) SetProbe(p *probe.Probe) {
	if a := l.arena; a.probes == nil && p != nil {
		a.probes = make([]*probe.Probe, cap(a.links))
	}
	if ps := l.arena.probes; ps != nil {
		ps[l.elem] = p
	}
}

func (l *Link) probe() *probe.Probe {
	if ps := l.arena.probes; ps != nil {
		return ps[l.elem]
	}
	return nil
}

// Drain releases the link's in-flight state through release (which may
// be nil): the flits on the wire and any flit a stuck fault is holding.
// End-of-run reclamation; the counters read what they read before.
func (l *Link) Drain(release func(*flit.Flit)) {
	busy, flits := l.BusyCycles(), l.Flits()
	held := l.faults().held
	if fs := l.fs; fs != nil {
		fs.heldCycles, fs.held = l.HeldCycles(), nil
	}
	for _, f := range append(l.slot[:], held) {
		if f != nil && release != nil {
			release(f)
		}
	}
	l.slot, l.vis = [2]*flit.Flit{}, [2]uint64{never, never}
	l.flits, l.busyBase = flits, flits-busy
}

// Fault returns the active fault mode.
func (l *Link) Fault() FaultMode { return l.fault }

// faults returns the wire's fault state, a zero one if it never faulted.
func (l *Link) faults() (fs faultState) {
	if l.fs != nil {
		fs = *l.fs
	}
	return fs
}

// Corrupted returns the number of flits whose payload a fault flipped.
func (l *Link) Corrupted() uint64 { return l.faults().corrupted }

// HeldCycles returns the cycles a sent flit was held by a stuck fault:
// every cycle from the one it was held in, up to the clock's.
func (l *Link) HeldCycles() uint64 {
	fs := l.faults()
	if fs.held != nil {
		return fs.heldCycles + l.arena.now() - fs.heldAt
	}
	return fs.heldCycles
}

// Overruns returns the number of flits lost to double occupancy; always
// zero under correct flow control.
func (l *Link) Overruns() uint64 { return l.overruns }

// Utilization returns the fraction of elapsed cycles during which the
// wire carried a flit — the paper's link-load metric (the experimental
// setup loads two inter-switch links at 90%).
func (l *Link) Utilization() float64 {
	total := l.TotalCycles()
	if total == 0 {
		return 0
	}
	return float64(l.BusyCycles()) / float64(total)
}

// onWire counts the flits put on the wire that are visible from cycle
// from on, read in the given cycle: at most the one visible in it and,
// mid-cycle, one sent in it.
func (l *Link) onWire(from, cycle uint64) (n uint64) {
	for _, v := range l.vis {
		if v != never && v >= from && v <= cycle+1 {
			n++
		}
	}
	return n
}

// Flits returns the number of flits transported: put on the wire by
// the end of the last completed cycle.
func (l *Link) Flits() uint64 {
	now := l.arena.now()
	return l.flits - l.onWire(now+1, now)
}

// BusyCycles returns the elapsed cycles during which the wire carried a
// flit (the numerator of Utilization).
func (l *Link) BusyCycles() uint64 { return l.BusyAt(l.arena.now()) }

// BusyAt is BusyCycles read in the given cycle — the cycles before it
// in which the wire carried a flit, not the one visible in it. The
// trace collector samples it in its Tick.
func (l *Link) BusyAt(cycle uint64) uint64 {
	return l.flits - l.onWire(cycle, cycle) - l.busyBase
}

// TotalCycles returns the cycles elapsed since the counters were reset
// (the denominator of Utilization).
func (l *Link) TotalCycles() uint64 { return l.arena.now() - l.cycleBase }

// ResetStats clears the utilization counters without touching in-flight
// state, so measurements can exclude warm-up.
func (l *Link) ResetStats() {
	now := l.arena.now()
	l.flits = l.onWire(now+1, now)
	l.busyBase = l.flits - l.onWire(now, now)
	l.cycleBase = now
	l.overruns = 0
	if fs := l.fs; fs != nil {
		fs.corrupted, fs.heldCycles, fs.heldAt = 0, 0, now
	}
}
