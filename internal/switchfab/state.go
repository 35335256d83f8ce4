// Snapshot support for the switch fabric (DESIGN.md §13).
//
// A switch section holds the full routing pipeline state: the random
// register, the per-input FIFOs (with their queued flit images), the
// per-output credit counters and wormhole locks, the per-input route
// grants, the arbiter priority state, and the statistics. The scratch
// granted flags are per-cycle and always false between runs.
package switchfab

import (
	"fmt"

	"nocemu/internal/state"
)

// SaveState serializes one switch.
func (s *Switch) SaveState(w *state.Writer) {
	s.lfsr.SaveState(w)
	w.Int(s.cfg.NumIn)
	w.Int(s.cfg.NumOut)
	for i := range s.inBufs {
		s.inBufs[i].SaveState(w)
	}
	for i := range s.inRoute {
		w.Int(s.inRoute[i])
	}
	for o := range s.credits {
		w.Int(s.credits[o])
		w.Int(s.lock[o])
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
	if nIn != s.cfg.NumIn || nOut != s.cfg.NumOut {
		return fmt.Errorf("switchfab %s: snapshot is %dx%d, built %dx%d",
			s.cfg.Name, nIn, nOut, s.cfg.NumIn, s.cfg.NumOut)
	}
	for i := range s.inBufs {
		if err := s.inBufs[i].LoadState(r); err != nil {
			return err
		}
	}
	for i := range s.inRoute {
		rt := r.Int()
		if r.Err() == nil && (rt < -1 || rt >= s.cfg.NumOut) {
			return fmt.Errorf("switchfab %s: snapshot routes input %d to port %d", s.cfg.Name, i, rt)
		}
		s.inRoute[i] = rt
		s.granted[i] = false
	}
	for o := range s.credits {
		s.credits[o] = r.Int()
		lk := r.Int()
		if r.Err() == nil && (lk < -1 || lk >= s.cfg.NumIn) {
			return fmt.Errorf("switchfab %s: snapshot locks output %d to input %d", s.cfg.Name, o, lk)
		}
		s.lock[o] = lk
		if err := s.arbiters[o].LoadState(r); err != nil {
			return fmt.Errorf("switchfab %s: output %d arbiter: %w", s.cfg.Name, o, err)
		}
	}
	s.stats.FlitsRouted = r.U64()
	s.stats.PacketsRouted = r.U64()
	s.stats.BlockedCycles = r.U64()
	s.stats.Cycles = r.U64()
	return r.Err()
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
