// Snapshot support for the switch fabric (DESIGN.md §13).
//
// A switch section holds the full routing pipeline state: the random
// register, the per-lane input FIFOs (with their queued flit images),
// the per-lane route grants, credit counters and wormhole locks, the
// per-port arbiter priority state, and the statistics. No mask is
// serialized: all are empty between cycles but the occupied-lane mask,
// which is rebuilt from the FIFOs on load; the FIFO counters are written
// settled, so the bytes do not say which lanes were committed lazily.
// The arrival and credit flags are not state either: a load raises them
// all, and a raised flag only means look.
// The two leading counts are lane counts — port counts at one virtual
// channel — so a snapshot restores only into a switch of the same shape
// and channel count.
package switchfab

import (
	"fmt"

	"nocemu/internal/state"
)

// LockRouteError reports a snapshot section that locks output lane
// OutLane to input lane InLane while that lane is routed to Route (-1:
// nowhere). A running switch sets and clears lock and route together, and
// Tick visits an output port only when an occupied lane is routed there.
type LockRouteError struct {
	Switch                 string
	OutLane, InLane, Route int
}

func (e *LockRouteError) Error() string {
	return fmt.Sprintf("switchfab %s: snapshot locks output lane %d to input lane %d, which is routed to output lane %d", e.Switch, e.OutLane, e.InLane, e.Route)
}

// SaveState serializes one switch.
func (s *Switch) SaveState(w *state.Writer) {
	s.settle()
	s.lfsr.SaveState(w)
	w.Int(len(s.inBufs))
	w.Int(len(s.lock))
	for i := range s.inBufs {
		s.inBufs[i].SaveState(w)
	}
	for i := range s.inRoute {
		w.Int(s.inRoute[i])
	}
	for o := range s.arbiters {
		for ol := o * s.cfg.NumVC; ol < (o+1)*s.cfg.NumVC; ol++ {
			w.Int(s.credits[ol])
			w.Int(s.lock[ol])
		}
		s.arbiters[o].SaveState(w)
	}
	w.U64(s.stats.FlitsRouted)
	w.U64(s.stats.PacketsRouted)
	w.U64(s.stats.BlockedCycles)
	w.U64(s.stats.Cycles)
}

// LoadState restores one switch.
func (s *Switch) LoadState(r *state.Reader) error {
	if err := s.lfsr.LoadState(r); err != nil {
		return fmt.Errorf("switchfab %s: %w", s.cfg.Name, err)
	}
	nIn, nOut := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nIn != len(s.inBufs) || nOut != len(s.lock) {
		return fmt.Errorf("switchfab %s: snapshot has %dx%d lanes, built %dx%d (%d virtual channels)",
			s.cfg.Name, nIn, nOut, len(s.inBufs), len(s.lock), s.cfg.NumVC)
	}
	clear(s.masks)
	s.raiseFlags() // whatever the wires hold now, the next Tick looks
	for i := range s.inBufs {
		if err := s.inBufs[i].LoadState(r); err != nil {
			return err
		}
		if !s.inBufs[i].Empty() {
			s.occ[i>>6] |= 1 << (i & 63)
		}
	}
	for i := range s.inRoute {
		rt := r.Int()
		if r.Err() == nil && (rt < -1 || rt >= len(s.lock)) {
			return fmt.Errorf("switchfab %s: snapshot routes input lane %d to output lane %d", s.cfg.Name, i, rt)
		}
		s.inRoute[i] = rt
	}
	for o := range s.arbiters {
		for ol := o * s.cfg.NumVC; ol < (o+1)*s.cfg.NumVC; ol++ {
			s.credits[ol] = r.Int()
			lk := r.Int()
			if r.Err() == nil && (lk < -1 || lk >= len(s.inBufs)) {
				return fmt.Errorf("switchfab %s: snapshot locks output lane %d to input lane %d", s.cfg.Name, ol, lk)
			}
			s.lock[ol] = lk
		}
		if err := s.arbiters[o].LoadState(r); err != nil {
			return fmt.Errorf("switchfab %s: output %d arbiter: %w", s.cfg.Name, o, err)
		}
	}
	s.stats.FlitsRouted = r.U64()
	s.stats.PacketsRouted = r.U64()
	s.stats.BlockedCycles = r.U64()
	s.stats.Cycles = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	for ol, h := range s.lock {
		if h >= 0 && s.inRoute[h] != ol {
			return &LockRouteError{Switch: s.cfg.Name, OutLane: ol, InLane: h, Route: s.inRoute[h]}
		}
	}
	for i := range s.inBufs {
		if c := s.inBufs[i].Stats().Cycles; c != s.stats.Cycles {
			return fmt.Errorf("switchfab %s: snapshot counts %d cycles on input lane %d, %d on the switch", s.cfg.Name, c, i, s.stats.Cycles)
		}
	}
	return nil
}

// SaveState serializes the switch arena: the element count (validated
// on restore), then every switch in index order.
func (a *Arena) SaveState(w *state.Writer) {
	w.Int(len(a.sws))
	for i := range a.sws {
		a.sws[i].SaveState(w)
	}
}

// LoadState restores every switch.
func (a *Arena) LoadState(r *state.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(a.sws) {
		return fmt.Errorf("switchfab: snapshot arena %s has %d switches, built %d", a.name, n, len(a.sws))
	}
	for i := range a.sws {
		if err := a.sws[i].LoadState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
