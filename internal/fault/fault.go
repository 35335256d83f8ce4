// Package fault schedules link-fault injection campaigns against a
// running emulation — the functional-validation use of the paper's
// platform: subject the emulated NoC to stuck and corrupting links and
// observe, through the ordinary statistics devices, whether the design
// tolerates them.
//
// A Spec activates one fault mode on one link for a cycle window; the
// Controller is an engine component that applies and clears the faults
// at the right cycles. Stuck faults exercise the flow-control path
// (flits are held, never lost); corrupt faults exercise end-to-end
// integrity (the receiving network interface detects the checksum
// mismatch).
package fault

import (
	"fmt"

	"nocemu/internal/link"
	"nocemu/internal/probe"
)

// Spec is one fault activation: Mode on Links[Link] for cycles
// [From, Until).
type Spec struct {
	Link  int
	Mode  link.FaultMode
	From  uint64
	Until uint64
}

// Controller applies fault specs cycle by cycle.
type Controller struct {
	name  string
	links []*link.Link
	specs []Spec

	applied uint64

	// probe records fault-window transitions; nil when tracing is off.
	probe *probe.Probe
}

// NewController validates the campaign against the link list.
func NewController(name string, links []*link.Link, specs []Spec) (*Controller, error) {
	if name == "" {
		return nil, fmt.Errorf("fault: empty controller name")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fault: empty campaign")
	}
	for i, s := range specs {
		if s.Link < 0 || s.Link >= len(links) {
			return nil, fmt.Errorf("fault: spec %d targets link %d of %d", i, s.Link, len(links))
		}
		if s.Mode != link.FaultStuck && s.Mode != link.FaultCorrupt {
			return nil, fmt.Errorf("fault: spec %d has mode %d", i, s.Mode)
		}
		if s.Until <= s.From {
			return nil, fmt.Errorf("fault: spec %d window [%d,%d)", i, s.From, s.Until)
		}
	}
	return &Controller{name: name, links: links, specs: specs}, nil
}

// ComponentName implements engine.Component.
func (c *Controller) ComponentName() string { return c.name }

// Tick implements engine.Component: recompute each targeted link's
// fault mode for this cycle (stuck dominates corrupt when windows
// overlap).
func (c *Controller) Tick(cycle uint64) {
	// Reset targeted links, then apply active windows. Window transitions
	// are traced exactly once: the quiescence contract guarantees Tick
	// executes at every From/Until boundary (NextWake targets them), so
	// the equality tests below cannot be skipped over.
	for _, s := range c.specs {
		c.links[s.Link].SetFault(link.FaultNone)
		if cycle == s.Until {
			c.probe.FaultClear(cycle, uint32(s.Link))
		}
	}
	for _, s := range c.specs {
		if cycle < s.From || cycle >= s.Until {
			continue
		}
		if cycle == s.From {
			c.probe.FaultArm(cycle, uint32(s.Link), uint64(s.Mode))
		}
		l := c.links[s.Link]
		if l.Fault() == link.FaultStuck {
			continue // stuck dominates
		}
		l.SetFault(s.Mode)
		c.applied++
	}
}

// Commit implements engine.Component; the faulted wires' commits are
// their arena's.
func (c *Controller) Commit(cycle uint64) {}

// TickSerially implements engine.SerialTicker: a SetFault that faults a
// wire appends it to its arena's list, which another controller may be
// appending to in the same cycle, so the pooled walk ticks controllers
// alone. Their Tick reads no other component's state.
func (c *Controller) TickSerially() {}

// appliedPerCycle counts the specs Tick would apply at the given cycle,
// mirroring its domination order (an active stuck window on the same
// link earlier in the list suppresses later applications).
func (c *Controller) appliedPerCycle(cycle uint64) uint64 {
	var n uint64
	for i, s := range c.specs {
		if cycle < s.From || cycle >= s.Until {
			continue
		}
		stuck := false
		for _, p := range c.specs[:i] {
			if p.Link == s.Link && p.Mode == link.FaultStuck && cycle >= p.From && cycle < p.Until {
				stuck = true
				break
			}
		}
		if !stuck {
			n++
		}
	}
	return n
}

// NextWake implements engine.Quiescable. Tick recomputes fault modes
// purely from the cycle number, so between window boundaries it sets
// the same modes it set last cycle: the controller is always quiet and
// wakes at the next From/Until boundary, where the active set changes.
// The links keep carrying the correct modes while it is parked.
func (c *Controller) NextWake(cycle uint64) (uint64, bool) {
	wake := ^uint64(0)
	for _, s := range c.specs {
		if s.From > cycle && s.From < wake {
			wake = s.From
		}
		if s.Until > cycle && s.Until < wake {
			wake = s.Until
		}
	}
	return wake, true
}

// SkipIdle implements engine.Quiescable: the active set is constant
// across a skipped span (no boundary inside it), so the applied counter
// advances by the per-cycle application count times the span length.
func (c *Controller) SkipIdle(from, n uint64) {
	c.applied += c.appliedPerCycle(from) * n
}

// SetProbe attaches the tracing probe (nil disables tracing).
func (c *Controller) SetProbe(p *probe.Probe) { c.probe = p }

// AppliedCycles returns the total link-cycles of active faults.
func (c *Controller) AppliedCycles() uint64 { return c.applied }
