// Snapshot support for the switch fabric (DESIGN.md §13).
//
// A switch section holds the full routing pipeline state: the random
// register, the per-lane input queues (capacity, size, the queued flit
// images in queue order, then the lane counters), the per-lane route
// grants, credit counters and wormhole locks, the per-port arbiter
// priority state, and the statistics. No mask is serialized: all are
// empty between cycles but the occupied-lane mask, which is rebuilt from
// the lanes on load; the lane counters are written settled, so the bytes
// do not say which lanes were counted lazily.
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
	w.Int(len(s.lanes))
	w.Int(len(s.lock))
	for r := range s.lanes {
		s.lanes[r].SaveState(w, s.ring(r))
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
	if nIn != len(s.lanes) || nOut != len(s.lock) {
		return fmt.Errorf("switchfab %s: snapshot has %dx%d lanes, built %dx%d (%d virtual channels)",
			s.cfg.Name, nIn, nOut, len(s.lanes), len(s.lock), s.cfg.NumVC)
	}
	clear(s.masks)
	s.flits, s.before, s.tickedAt = 0, 0, never
	s.raiseFlags() // whatever the wires hold now, the next Tick looks
	for i := range s.lanes {
		if err := s.lanes[i].LoadState(r, s.ring(i)); err != nil {
			return fmt.Errorf("switchfab %s: input lane %d: %w", s.cfg.Name, i, err)
		}
		if n := s.lanes[i].Len(); n > 0 {
			s.occ[i>>6] |= 1 << (i & 63)
			s.flits += n
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
			if r.Err() == nil && (lk < -1 || lk >= len(s.lanes)) {
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
	for i := range s.lanes {
		if c := s.lanes[i].Cycles(); c != s.stats.Cycles {
			return fmt.Errorf("switchfab %s: snapshot counts %d cycles on input lane %d, %d on the switch", s.cfg.Name, c, i, s.stats.Cycles)
		}
		if err := s.checkFraming(i); err != nil {
			return err
		}
	}
	return nil
}

// checkFraming verifies what Tick will do with input lane i's queue:
// every flit that reaches the front while the lane is routed nowhere —
// at the front of an unrouted lane, or behind a tail — is a head flit
// the table routes on one of the switch's channels.
func (s *Switch) checkFraming(i int) error {
	routed := s.inRoute[i] != -1
	for k := 0; k < s.lanes[i].Len(); k++ {
		f := s.lanes[i].Peek(s.ring(i), k)
		if !routed {
			if !f.Kind.IsHead() {
				return fmt.Errorf("switchfab %s: snapshot holds an unrouted %s flit at position %d of input lane %d", s.cfg.Name, f.Kind, k, i)
			}
			if _, vc, err := s.cfg.Table.Route(s.cfg.Node, f.Dst); err != nil || int(vc) >= s.cfg.NumVC {
				return fmt.Errorf("switchfab %s: snapshot holds a head flit for endpoint %d on input lane %d, which the table routes nowhere here (%v, class %d)", s.cfg.Name, f.Dst, i, err, vc)
			}
		}
		routed = !f.Kind.IsTail()
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
