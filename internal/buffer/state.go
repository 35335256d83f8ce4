package buffer

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// SaveState serializes the queue over its slots: capacity (validated on
// restore — the capacity is platform configuration), the queued flits in
// queue order, and the counters.
func (q *Queue) SaveState(w *state.Writer, slots []*flit.Flit) {
	w.Int(len(slots))
	w.Int(int(q.size))
	for k := 0; k < int(q.size); k++ {
		q.Peek(slots, k).SaveState(w)
	}
	q.Counters.SaveState(w)
}

// LoadState restores the queue into its slots, materializing the queued
// flits as fresh pool-adoptable images and normalizing the ring to head
// 0 (the head index is not observable, so the normalized form keeps
// re-snapshots canonical).
func (q *Queue) LoadState(r *state.Reader, slots []*flit.Flit) error {
	capacity := r.Int()
	size := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if capacity != len(slots) {
		return fmt.Errorf("snapshot capacity %d, built %d", capacity, len(slots))
	}
	if size < 0 || size > capacity {
		return fmt.Errorf("snapshot occupancy %d of %d", size, capacity)
	}
	clear(slots)
	q.head, q.size = 0, int32(size)
	for i := 0; i < size; i++ {
		f := &flit.Flit{}
		if err := f.LoadState(r); err != nil {
			return err
		}
		slots[i] = f
	}
	return q.Counters.LoadState(r)
}

// SaveState serializes the FIFO (see Queue.SaveState).
func (q *FIFO) SaveState(w *state.Writer) { q.Queue.SaveState(w, q.items) }

// LoadState restores the FIFO (see Queue.LoadState).
func (q *FIFO) LoadState(r *state.Reader) error {
	if err := q.Queue.LoadState(r, q.items); err != nil {
		return fmt.Errorf("buffer %s: %w", q.name, err)
	}
	return nil
}
