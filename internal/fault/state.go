package fault

import (
	"fmt"

	"nocemu/internal/state"
)

// SaveState serializes the fault controller (DESIGN.md §13). The
// campaign itself is configuration; only the applied counter is state —
// the fault modes the campaign imposes on links travel in the link
// sections, and Tick recomputes them from the cycle anyway.
func (c *Controller) SaveState(w *state.Writer) {
	w.Int(len(c.specs))
	w.U64(c.applied)
}

// LoadState restores the fault controller. The restored links judge
// no flit at Send until Tick has run on the restored timeline: a window
// may open or close in its first cycle.
func (c *Controller) LoadState(r *state.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(c.specs) {
		return fmt.Errorf("fault %s: snapshot campaign has %d specs, built %d", c.name, n, len(c.specs))
	}
	c.applied = r.U64()
	for _, s := range c.specs {
		c.links[s.Link].AwaitSetFault()
	}
	return r.Err()
}
