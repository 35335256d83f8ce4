// Snapshot support for the wire layer (DESIGN.md §13).
//
// Wire sections hold only logical state: the committed flit on the
// wire, a fault-held staged flit, the fault mode, and the statistic
// counters. Snapshots are taken between runs, where the kernel has
// settled all skip-accounting debt — a parked consumer's uncollected
// credits included, all but the last cycle's (TakeBefore) — so counters
// and credits stand where the naive schedule has them: the bytes do not
// depend on the kernel that wrote them, and restore into any (sequential
// or parallel, gated or not). The consumers' arrival flags and the credit
// wire's last-commit note are not state; a load raises or clears them.
package link

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// SaveState serializes one flit wire. A staged flit is only legal
// under a stuck fault (any other staged flit would mean the snapshot
// was taken mid-cycle, which is a sequencing bug).
func (l *Link) SaveState(w *state.Writer) {
	if l.taken {
		panic(fmt.Sprintf("link %s: snapshot with taken flag set (mid-cycle)", l.name))
	}
	if l.next != nil && l.fault != FaultStuck {
		panic(fmt.Sprintf("link %s: snapshot with staged flit outside a stuck fault", l.name))
	}
	w.U8(uint8(l.fault))
	flit.SaveFlit(w, l.cur)
	flit.SaveFlit(w, l.next)
	w.U64(l.busyCycles)
	w.U64(l.totalCycles)
	w.U64(l.flits)
	w.U64(l.overruns)
	w.U64(l.corrupted)
	w.U64(l.heldCycles)
}

// LoadState restores one flit wire.
func (l *Link) LoadState(r *state.Reader) error {
	mode := FaultMode(r.U8())
	if r.Err() == nil && mode > FaultCorrupt {
		return fmt.Errorf("link %s: snapshot fault mode %d", l.name, mode)
	}
	cur, err := flit.LoadFlit(r)
	if err != nil {
		return err
	}
	next, err := flit.LoadFlit(r)
	if err != nil {
		return err
	}
	if next != nil && mode != FaultStuck {
		return fmt.Errorf("link %s: snapshot stages a flit without a stuck fault", l.name)
	}
	l.fault = mode
	l.cur = cur
	l.next = next
	l.taken = false
	l.busyCycles = r.U64()
	l.totalCycles = r.U64()
	l.flits = r.U64()
	l.overruns = r.U64()
	l.corrupted = r.U64()
	l.heldCycles = r.U64()
	return r.Err()
}

// SaveState serializes one credit wire. Between runs every staged
// credit has committed (Send arms the wire, so it always commits on
// schedule); only the accumulated uncollected credits and the
// conservation counter are state.
func (c *CreditLink) SaveState(w *state.Writer) {
	if c.next != 0 {
		panic(fmt.Sprintf("credit %s: snapshot with staged credits (mid-cycle)", c.name))
	}
	w.U32(c.cur)
	w.U64(c.sent)
}

// LoadState restores one credit wire.
func (c *CreditLink) LoadState(r *state.Reader) error {
	c.cur = r.U32()
	c.next = 0
	c.lastN = 0 // restored credits are old: TakeBefore leaves none behind
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
