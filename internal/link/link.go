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
// Both types are engine components: they stage values during the Tick
// phase and make them visible at Commit, preserving the two-phase
// order-independence of the kernel.
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
	// FaultStuck holds the wire: staged flits are not transferred until
	// the fault clears. Upstream sees a busy wire and stalls — the
	// credit protocol preserves every flit.
	FaultStuck
	// FaultCorrupt flips payload bits of every transferred flit; the
	// receiving network interface detects the checksum mismatch.
	FaultCorrupt
)

// Link is a one-flit-per-cycle registered wire.
type Link struct {
	name  string
	cur   *flit.Flit
	next  *flit.Flit
	taken bool
	fault FaultMode
	elem  int32 // the wire pair's index in its Arena; what onSend is told

	busyCycles  uint64
	totalCycles uint64
	flits       uint64
	overruns    uint64
	corrupted   uint64
	heldCycles  uint64

	// onDrop receives any flit the link loses (an overrun overwrite) so
	// pooled flits return to their freelist instead of leaking; nil
	// leaves dropped flits to the garbage collector.
	onDrop func(*flit.Flit)
	// onSend fires on every successful Send — the arm-on-input hook the
	// gated scheduler uses to wake this wire in the same cycle the
	// producer stages a flit; one function serves every wire of an arena
	// (Arena.SetHooks). Nil when gating is off.
	onSend func(elem int)
	// arrived is the consuming switch's flag for this wire, set by the
	// Commit that makes a flit visible (DESIGN.md §10, "Who tells whom");
	// nil when the consumer polls (an ejector, a test).
	arrived *uint8
	// probe records drop and fault-fire events; nil when tracing is off.
	probe *probe.Probe
}

// NewLink returns an idle link with the given instance name.
func NewLink(name string) *Link {
	return &Link{name: name}
}

// ComponentName implements engine.Component.
func (l *Link) ComponentName() string { return l.name }

// Tick implements engine.Component; links are passive during Tick.
func (l *Link) Tick(cycle uint64) {}

// Send stages a flit for delivery next cycle. It returns an error if a
// flit was already staged this cycle (two drivers on one wire).
func (l *Link) Send(f *flit.Flit) error {
	if f == nil {
		return fmt.Errorf("link %s: send nil flit", l.name)
	}
	if l.next != nil {
		return fmt.Errorf("link %s: double drive in one cycle", l.name)
	}
	l.next = f
	if l.onSend != nil {
		l.onSend(int(l.elem))
	}
	return nil
}

// NotifyArrival makes every Commit that puts a flit on the wire set
// *flag. The consuming switch owns the byte; the wire only ever sets it.
func (l *Link) NotifyArrival(flag *uint8) { l.arrived = flag }

// Idle reports whether the wire holds nothing, committed or staged —
// the link's quiescence condition. An idle commit advances only the
// utilization denominator, whatever the fault mode.
func (l *Link) Idle() bool { return l.cur == nil && l.next == nil }

// SkipIdle accounts n commits the wire skipped while idle (the arena's
// ElemSkipIdle): each would have advanced only the utilization
// denominator.
func (l *Link) SkipIdle(from, n uint64) { l.totalCycles += n }

// Busy reports whether a flit has already been staged this cycle.
func (l *Link) Busy() bool { return l.next != nil }

// Peek returns the committed flit on the wire, if any, without
// consuming it.
func (l *Link) Peek() *flit.Flit { return l.cur }

// Take consumes the committed flit on the wire. It returns nil if the
// wire is idle or the flit was already taken this cycle.
func (l *Link) Take() *flit.Flit {
	if l.cur == nil || l.taken {
		return nil
	}
	l.taken = true
	return l.cur
}

// Commit implements engine.Component: the staged flit becomes visible
// and utilization counters advance. An unconsumed flit that would be
// overwritten is counted as an overrun and dropped; with correct credit
// flow control this never happens, and tests assert Overruns()==0.
func (l *Link) Commit(cycle uint64) { l.commit(cycle) }

// commit is Commit, reporting whether it put a flit on the wire: the
// commit that raises the arrival flag, and the one Arena.CommitList
// tells its deliver hook of.
func (l *Link) commit(cycle uint64) (delivered bool) {
	l.totalCycles++
	if l.cur != nil {
		l.busyCycles++
	}
	if l.fault == FaultStuck {
		// The wire is down: consume a taken flit but hold the staged
		// one in place, so the sender keeps seeing Busy() and stalls.
		if l.taken {
			l.cur = nil
			l.taken = false
		}
		if l.next != nil {
			l.heldCycles++
		}
		return false
	}
	if l.cur != nil && !l.taken && l.next != nil {
		l.overruns++
		l.probe.FlitDrop(cycle, uint64(l.cur.Packet), uint16(l.cur.Src), uint16(l.cur.Dst), l.cur.Index)
		if l.onDrop != nil {
			l.onDrop(l.cur) // the staged flit overwrites this one
		}
	}
	if l.next != nil && l.fault == FaultCorrupt {
		l.next.Payload = ^l.next.Payload
		l.corrupted++
		l.probe.FaultFire(cycle, uint64(l.next.Packet), uint16(l.next.Src), uint16(l.next.Dst), l.next.Index)
	}
	if l.taken || l.next != nil {
		l.cur = l.next
	}
	delivered = l.next != nil
	if delivered {
		l.flits++
		if l.arrived != nil {
			*l.arrived = 1
		}
	}
	l.next = nil
	l.taken = false
	return delivered
}

// SetFault switches the link's fault mode; FaultNone restores normal
// operation (a held flit resumes on the next commit).
func (l *Link) SetFault(m FaultMode) { l.fault = m }

// SetDropHandler installs the callback invoked with any flit the link
// loses (overrun drop) — the pooled datapath's fault-drop release path.
func (l *Link) SetDropHandler(h func(*flit.Flit)) { l.onDrop = h }

// SetProbe attaches the tracing probe (nil disables tracing).
func (l *Link) SetProbe(p *probe.Probe) { l.probe = p }

// Drain releases the link's in-flight state through release (which may
// be nil): the committed flit on the wire and any staged flit a stuck
// fault is holding. End-of-run reclamation; counters are untouched.
func (l *Link) Drain(release func(*flit.Flit)) {
	if l.cur != nil && !l.taken {
		if release != nil {
			release(l.cur)
		}
	}
	l.cur = nil
	l.taken = false
	if l.next != nil {
		if release != nil {
			release(l.next)
		}
		l.next = nil
	}
}

// Fault returns the active fault mode.
func (l *Link) Fault() FaultMode { return l.fault }

// Corrupted returns the number of flits whose payload a fault flipped.
func (l *Link) Corrupted() uint64 { return l.corrupted }

// HeldCycles returns the cycles a staged flit was held by a stuck
// fault.
func (l *Link) HeldCycles() uint64 { return l.heldCycles }

// Utilization returns the fraction of committed cycles during which the
// wire carried a flit — the paper's link-load metric (the experimental
// setup loads two inter-switch links at 90%).
func (l *Link) Utilization() float64 {
	if l.totalCycles == 0 {
		return 0
	}
	return float64(l.busyCycles) / float64(l.totalCycles)
}

// Flits returns the number of flits transported.
func (l *Link) Flits() uint64 { return l.flits }

// BusyCycles returns the committed cycles during which the wire carried
// a flit (the numerator of Utilization).
func (l *Link) BusyCycles() uint64 { return l.busyCycles }

// TotalCycles returns the committed cycles observed (the denominator of
// Utilization).
func (l *Link) TotalCycles() uint64 { return l.totalCycles }

// Overruns returns the number of flits lost to double occupancy; always
// zero under correct flow control.
func (l *Link) Overruns() uint64 { return l.overruns }

// ResetStats clears the utilization counters without touching in-flight
// state, so measurements can exclude warm-up.
func (l *Link) ResetStats() {
	l.busyCycles, l.totalCycles, l.flits, l.overruns = 0, 0, 0, 0
	l.corrupted, l.heldCycles = 0, 0
}
