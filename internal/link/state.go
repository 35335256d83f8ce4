// Snapshot support for the wire layer (DESIGN.md §13).
//
// Wire sections hold only logical state, read at the clock's cycle N:
// the flit visible in N, a fault-held flit, the fault mode, and the
// statistic counters. Snapshots are taken between runs, where the
// kernel has settled all skip-accounting debt — a parked consumer's
// uncollected credits included, all but the last cycle's (TakeBefore)
// — so the bytes do not depend on the kernel that wrote them, and
// restore into any. Which slot holds a value is not state (N's parity
// says), and neither are the consumers' flags or the credit wire's
// last-send note; a load raises or clears them.
package link

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// SaveState serializes one flit wire at the clock's cycle N: the flit
// visible in N, and the held one — a flit a SetFault between runs
// released for N+1 is written as still held. A flit taken in N or sent in N
// means the snapshot was taken mid-cycle, one left untaken before N a
// flow-control bug: either panics.
func (l *Link) SaveState(w *state.Writer) {
	now := l.arena.now()
	cur, next, held := l.slot[now&1], l.slot[(now+1)&1], l.faults().held
	if next != nil && l.faults().heldAt == now+1 && l.vis[(now+1)&1] == now+1 {
		next, held = nil, next
	}
	if next != nil || (cur == nil) == (l.vis[now&1] == now) {
		panic(fmt.Sprintf("link %s: snapshot in cycle %d with a flit taken, sent or left untaken (mid-cycle)", l.ComponentName(), now))
	}
	w.U8(uint8(l.fault))
	flit.SaveFlit(w, cur)
	flit.SaveFlit(w, held)
	w.U64(l.BusyCycles())
	w.U64(l.TotalCycles())
	w.U64(l.Flits())
	w.U64(l.overruns)
	w.U64(l.Corrupted())
	w.U64(l.HeldCycles())
}

// LoadState restores one flit wire at the clock's cycle: the visible
// flit goes into that cycle's slot, and a held flit without a stuck
// fault is released into the next.
func (l *Link) LoadState(r *state.Reader) error {
	mode := FaultMode(r.U8())
	if r.Err() == nil && mode > FaultCorrupt {
		return fmt.Errorf("link %s: snapshot fault mode %d", l.ComponentName(), mode)
	}
	cur, err := flit.LoadFlit(r)
	if err != nil {
		return err
	}
	held, err := flit.LoadFlit(r)
	if err != nil {
		return err
	}
	busy, total, flits := r.U64(), r.U64(), r.U64()
	now := l.arena.now()
	l.slot, l.vis = [2]*flit.Flit{}, [2]uint64{never, never}
	if cur != nil {
		l.slot[now&1], l.vis[now&1] = cur, now
	}
	l.flits = flits
	l.busyBase = flits - l.onWire(now, now) - busy
	l.cycleBase = now - total
	l.overruns = r.U64()
	corrupted, heldCycles := r.U64(), r.U64()
	l.fs, l.fault = nil, FaultNone
	if held != nil || corrupted != 0 || heldCycles != 0 || mode != FaultNone {
		l.fs = &faultState{held: held, heldAt: now, until: never, corrupted: corrupted, heldCycles: heldCycles}
	}
	l.SetFault(mode)
	return r.Err()
}

// SaveState serializes one credit wire: the credits on it and the
// conservation counter. Credits sent in the clock's cycle would mean
// the snapshot was taken mid-cycle, which panics.
func (c *CreditLink) SaveState(w *state.Writer) {
	if now := c.arena.now(); c.at == now+1 && c.last != 0 {
		panic(fmt.Sprintf("credit %s: snapshot with credits sent in cycle %d (mid-cycle)", c.ComponentName(), now))
	}
	w.U32(c.Pending())
	w.U64(c.sent)
}

// LoadState restores one credit wire: every restored credit is visible
// in the clock's cycle, and old — TakeBefore leaves none behind.
func (c *CreditLink) LoadState(r *state.Reader) error {
	n := r.U32()
	c.n, c.last, c.at = [2]uint32{}, 0, 0
	c.n[c.arena.now()&1] = n
	c.sent = r.U64()
	return r.Err()
}

// SaveState serializes the wire arena: the wire counts (validated on
// restore), then every flit wire and credit wire in index order.
func (a *Arena) SaveState(w *state.Writer) {
	w.Int(len(a.links))
	w.Int(len(a.credits))
	for i := range a.links {
		a.links[i].SaveState(w)
	}
	for i := range a.credits {
		a.credits[i].SaveState(w)
	}
}

// LoadState restores every wire.
func (a *Arena) LoadState(r *state.Reader) error {
	nl, nc := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nl != len(a.links) || nc != len(a.credits) {
		return fmt.Errorf("link: snapshot arena %s has %d+%d wires, built %d+%d",
			a.name, nl, nc, len(a.links), len(a.credits))
	}
	for i := range a.links {
		if err := a.links[i].LoadState(r); err != nil {
			return err
		}
	}
	for i := range a.credits {
		if err := a.credits[i].LoadState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
