// Snapshot support for the kernel (DESIGN.md §13).
//
// The kernel's own section is deliberately tiny: the cycle counter is
// the only kernel state a snapshot carries. Everything else the kernel
// holds — wake heaps, active lists, park watermarks, shard assignments
// — is scheduling ephemera that is settled at every kernel exit and
// restarted by LoadState (quiesce.go, rebase).
// Because none of it is serialized, a snapshot is configuration-free:
// the same bytes restore into an engine with or without workers, gated
// or not, and the runs stay bit-identical.
package engine

import (
	"nocemu/internal/state"
)

// Stateful is the state-serialization contract every stateful layer of
// the platform implements. SaveState appends the component's logical
// state to the section writer; LoadState restores it from a section
// reader, validating shape against the built configuration and failing
// loudly on drift. Both are called only between runs, never
// mid-cycle.
type Stateful interface {
	// SaveState serializes the component's logical state.
	SaveState(w *state.Writer)
	// LoadState restores it; errors abort the whole restore.
	LoadState(r *state.Reader) error
}

// SaveState serializes the kernel: the completed-cycle counter.
func (e *Engine) SaveState(w *state.Writer) {
	w.U64(e.cycle)
}

// LoadState restores the cycle counter. It must run before component
// sections load: the gates restart with everything active on the
// restored timeline, and the first executed cycle's quiet report judges
// each component and arena element by its restored state.
func (e *Engine) LoadState(r *state.Reader) error {
	cycle := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	e.rebase(cycle, nil) // a LoadState replaces the observers' state
	return nil
}

var _ Stateful = (*Engine)(nil)
