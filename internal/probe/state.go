// Snapshot support for the tracing subsystem (DESIGN.md §13).
//
// The collector drains and canonically orders the event log before
// serializing (finalize is idempotent: a stable sort by (cycle, ring)
// commutes with later appends, so sorting at a snapshot boundary leaves
// the final exported order unchanged). That makes the section a pure
// function of the emulation results — identical across kernel and
// gating choices — and leaves the rings empty, so per-ring state
// reduces to the overflow counters. The ring population and its build
// names are construction state and are validated, not restored;
// scheduler-interned names beyond the ring prefix are data and travel
// in the section.
package probe

import (
	"fmt"

	"nocemu/internal/state"
)

// SaveState serializes the collector.
func (c *Collector) SaveState(w *state.Writer) {
	c.finalize()
	w.U64(c.cfg.Window)
	w.Int(len(c.rings))
	for _, r := range c.rings {
		w.U64(r.dropped)
	}
	w.Int(len(c.comps) - len(c.rings))
	for _, name := range c.comps[len(c.rings):] {
		w.String(name)
	}
	w.Int(len(c.events))
	for i := range c.events {
		ev := &c.events[i]
		w.U64(ev.Cycle)
		w.U64(ev.Pkt)
		w.U64(ev.Val)
		w.U32(ev.Ring)
		w.U32(ev.Port)
		w.U32(ev.Comp)
		w.U16(ev.Src)
		w.U16(ev.Dst)
		w.U16(ev.Idx)
		w.U16(ev.VC)
		w.U8(uint8(ev.Kind))
	}
	w.U64(c.total)
	for _, n := range c.kindCount {
		w.U64(n)
	}
	w.Int(len(c.vcStalls))
	for _, n := range c.vcStalls {
		w.U64(n)
	}
	w.Int(len(c.wins))
	for _, t := range c.wins {
		w.U64(t.Inject)
		w.U64(t.Eject)
		w.U64(t.Route)
		w.U64(t.Stall)
		w.U64(t.Drop)
	}
	w.Int(len(c.bound))
	for _, b := range c.bound {
		w.U64(b.Cycle)
		w.U64(b.Occ)
		w.U64(b.Busy)
	}
}

// LoadState restores the collector.
func (c *Collector) LoadState(r *state.Reader) error {
	window := r.U64()
	nRings := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if window != c.cfg.Window {
		return fmt.Errorf("probe: snapshot window %d, built %d", window, c.cfg.Window)
	}
	if nRings != len(c.rings) {
		return fmt.Errorf("probe: snapshot has %d rings, built %d", nRings, len(c.rings))
	}
	for _, rg := range c.rings {
		rg.n = 0
		rg.dropped = r.U64()
	}
	nExtra := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nExtra < 0 {
		return fmt.Errorf("probe: snapshot with %d interned names", nExtra)
	}
	// The interned names refill the table and the map they were in; a
	// name the collector held at the same index is reused, not copied.
	c.comps = c.comps[:len(c.rings)]
	clear(c.schedComp)
	for i := 0; i < nExtra; i++ {
		var held string
		if k := len(c.comps); k < cap(c.comps) {
			held = c.comps[:k+1][k]
		}
		name, _ := r.Match(held)
		if r.Err() != nil {
			return r.Err()
		}
		if c.schedComp == nil {
			c.schedComp = make(map[string]uint32)
		}
		c.schedComp[name] = uint32(len(c.comps))
		c.comps = append(c.comps, name)
	}
	nEvents := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nEvents < 0 {
		return fmt.Errorf("probe: snapshot with %d events", nEvents)
	}
	c.events = c.events[:0]
	for i := 0; i < nEvents; i++ {
		ev := rec{
			Cycle: r.U64(), Pkt: r.U64(), Val: r.U64(),
			Ring: r.U32(), Port: r.U32(), Comp: r.U32(),
			Src: r.U16(), Dst: r.U16(), Idx: r.U16(), VC: r.U16(),
			Kind: Kind(r.U8()),
		}
		if r.Err() != nil {
			return r.Err()
		}
		if int(ev.Kind) >= numKinds {
			return fmt.Errorf("probe: snapshot event %d has kind %d", i, ev.Kind)
		}
		if int(ev.Comp) >= len(c.comps) {
			return fmt.Errorf("probe: snapshot event %d names component %d of %d", i, ev.Comp, len(c.comps))
		}
		c.events = append(c.events, ev)
	}
	c.sorted = len(c.events)
	c.total = r.U64()
	for k := range c.kindCount {
		c.kindCount[k] = r.U64()
	}
	nVC := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nVC < 0 {
		return fmt.Errorf("probe: snapshot with %d VC stall counters", nVC)
	}
	c.vcStalls = c.vcStalls[:0]
	for i := 0; i < nVC && r.Err() == nil; i++ {
		c.vcStalls = append(c.vcStalls, r.U64())
	}
	nWins := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nWins < 0 {
		return fmt.Errorf("probe: snapshot with %d windows", nWins)
	}
	c.wins = c.wins[:0]
	for i := 0; i < nWins && r.Err() == nil; i++ {
		c.wins = append(c.wins, WindowTally{
			Inject: r.U64(), Eject: r.U64(), Route: r.U64(),
			Stall: r.U64(), Drop: r.U64(),
		})
	}
	nBound := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if nBound < 0 {
		return fmt.Errorf("probe: snapshot with %d boundary samples", nBound)
	}
	c.bound = c.bound[:0]
	for i := 0; i < nBound && r.Err() == nil; i++ {
		c.bound = append(c.bound, boundary{Cycle: r.U64(), Occ: r.U64(), Busy: r.U64()})
	}
	if err := r.Err(); err != nil || c.clock == nil {
		return err
	}
	// Every window edge before the restored clock is sampled, and no
	// later one: the next Tick fills the windows up to its own cycle.
	now := c.clock()
	edges := now/c.cfg.Window + min(now%c.cfg.Window, 1)
	if uint64(len(c.bound)) != edges || len(c.wins) != len(c.bound) {
		return fmt.Errorf("probe: snapshot at cycle %d with %d window samples and %d tallies, want %d", now, len(c.bound), len(c.wins), edges)
	}
	for k, b := range c.bound {
		if b.Cycle != uint64(k)*c.cfg.Window {
			return fmt.Errorf("probe: snapshot window sample %d at cycle %d", k, b.Cycle)
		}
	}
	return nil
}
