// Package buffer implements the emulated input buffers: the flit queue
// record a switch keeps per lane over its slab of slots (Queue), the
// ejector's FIFO built on the same record, and the occupancy counters
// both keep.
//
// Buffer size is one of the three switch parameters the paper sweeps
// (number of inputs, number of outputs, size of buffers), and buffer
// occupancy is the raw signal behind the congestion statistics of the
// trace-driven receptors.
//
// A push or a pop takes effect at once: nothing is staged for a commit
// phase. The cycle boundary lives in the wires (a flit sent in one cycle
// is taken in the next), and a buffer is read only by its owner, which
// orders its own reads — the ejector pops the head present at the start
// of the cycle before it pushes the arrival, and the switch works from a
// mask of the lanes occupied at the start of the cycle.
//
// The owner ends each cycle it evaluated with EndCycle (Counters.Cycle
// for a switch lane), which advances the occupancy statistics by that
// cycle; SkipIdle (Counters.Idle) pays the same for any number of cycles
// at an unchanged size. So a switch counts a lane only in a cycle that
// pushed or popped it, and pays the cycles in between from its own cycle
// count (Counters.SettleTo) before the lane next counts and wherever the
// counters are read, saved or the queue is drained.
package buffer

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// Counters are one buffer's activity and occupancy counters.
type Counters struct {
	pushes, pops uint64
	sumOcc       uint64 // occupancy summed over the counted cycles
	maxOcc       int
	cycles       uint64
	blocked      uint64
}

// Pushed counts one push.
func (c *Counters) Pushed() { c.pushes++ }

// Popped counts one pop.
func (c *Counters) Popped() { c.pops++ }

// MarkBlocked records that the head flit existed this cycle but could
// not advance (lost arbitration or no downstream credit). This is the
// congestion signal the paper's receptors count.
func (c *Counters) MarkBlocked() { c.blocked++ }

// Cycle counts one cycle that ends with size flits queued.
func (c *Counters) Cycle(size int) {
	c.cycles++
	c.sumOcc += uint64(size)
	if size > c.maxOcc {
		c.maxOcc = size
	}
}

// Idle counts n cycles in which the owner neither pushed nor popped, at
// the unchanged size. That includes the maximum: no push, no rise, but
// Reset clears it under a queue that still holds flits and the next
// counted cycle brings it back.
func (c *Counters) Idle(size int, n uint64) {
	c.cycles += n
	c.sumOcc += uint64(size) * n
	if n > 0 && size > c.maxOcc {
		c.maxOcc = size
	}
}

// SettleTo pays the idle cycles a lazily counted buffer of the given
// size is owed: cycles is its owner's count of cycles so far, which the
// buffer's own count trails by the cycles it was left out of.
func (c *Counters) SettleTo(size int, cycles uint64) { c.Idle(size, cycles-c.cycles) }

// Cycles returns the counted cycles.
func (c *Counters) Cycles() uint64 { return c.cycles }

// Stats returns the current counter snapshot.
func (c *Counters) Stats() Stats {
	s := Stats{
		Pushes: c.pushes, Pops: c.pops, Blocked: c.blocked,
		Cycles: c.cycles, MaxOccupancy: c.maxOcc,
	}
	if c.cycles > 0 {
		s.MeanOccupancy = float64(c.sumOcc) / float64(c.cycles)
	}
	return s
}

// Reset clears the counters.
func (c *Counters) Reset() { *c = Counters{} }

// SaveState serializes the counters (DESIGN.md §13).
func (c *Counters) SaveState(w *state.Writer) {
	w.U64(c.pushes)
	w.U64(c.pops)
	w.U64(c.sumOcc)
	w.Int(c.maxOcc)
	w.U64(c.cycles)
	w.U64(c.blocked)
}

// LoadState restores the counters.
func (c *Counters) LoadState(r *state.Reader) error {
	c.pushes = r.U64()
	c.pops = r.U64()
	c.sumOcc = r.U64()
	c.maxOcc = r.Int()
	c.cycles = r.U64()
	c.blocked = r.U64()
	return r.Err()
}

// Stats is a snapshot of a buffer's counters.
type Stats struct {
	Pushes, Pops  uint64
	Blocked       uint64
	Cycles        uint64
	MaxOccupancy  int
	MeanOccupancy float64
}

// Queue is a flit queue's record over slots its owner keeps: where the
// ring starts in them, how many flits it holds, and its counters. A
// switch keeps every lane's slots in one slab beside a Queue per lane;
// a FIFO keeps its own.
type Queue struct {
	head, size int32
	Counters
}

// Len returns the occupancy.
func (q *Queue) Len() int { return int(q.size) }

// at returns the position in slots of the k-th flit from the head.
func (q *Queue) at(slots []*flit.Flit, k int) int {
	i := int(q.head) + k
	if i >= len(slots) {
		i -= len(slots)
	}
	return i
}

// Peek returns the k-th flit from the head; k must be below Len.
func (q *Queue) Peek(slots []*flit.Flit, k int) *flit.Flit { return slots[q.at(slots, k)] }

// Push appends a flit and reports whether there was room: a push into a
// full queue is a flow-control violation, which the owner reports.
func (q *Queue) Push(slots []*flit.Flit, f *flit.Flit) bool {
	if int(q.size) == len(slots) {
		return false
	}
	slots[q.at(slots, int(q.size))] = f
	q.size++
	q.Pushed()
	return true
}

// Pop removes and returns the head flit, or nil when empty.
func (q *Queue) Pop(slots []*flit.Flit) *flit.Flit {
	if q.size == 0 {
		return nil
	}
	f := slots[q.head]
	slots[q.head] = nil
	q.head = int32(q.at(slots, 1))
	q.size--
	q.Popped()
	return f
}

// Drain removes every queued flit, passing each to release (which may
// be nil). It is the end-of-run reclamation path: with pooled flits,
// every occupied slot holds an owned flit that must go back to its
// freelist. Counters are untouched.
func (q *Queue) Drain(slots []*flit.Flit, release func(*flit.Flit)) {
	for ; q.size > 0; q.size-- {
		f := slots[q.head]
		slots[q.head] = nil
		q.head = int32(q.at(slots, 1))
		if release != nil && f != nil {
			release(f)
		}
	}
	q.head = 0
}

// FIFO is a fixed-capacity flit queue with its own slots.
type FIFO struct {
	name  string
	items []*flit.Flit
	Queue
}

// New returns an empty FIFO with the given capacity (>= 1).
func New(name string, capacity int) (*FIFO, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer %s: capacity %d < 1", name, capacity)
	}
	return &FIFO{name: name, items: make([]*flit.Flit, capacity)}, nil
}

// MustNew is New for construction paths where the capacity is static.
func MustNew(name string, capacity int) *FIFO {
	f, err := New(name, capacity)
	if err != nil {
		panic(err)
	}
	return f
}

// Name returns the instance name.
func (q *FIFO) Name() string { return q.name }

// Cap returns the configured capacity.
func (q *FIFO) Cap() int { return len(q.items) }

// Empty reports whether the queue is empty.
func (q *FIFO) Empty() bool { return q.size == 0 }

// Full reports whether the queue has no room for another push.
func (q *FIFO) Full() bool { return int(q.size) == len(q.items) }

// Peek returns the head flit, or nil when empty.
func (q *FIFO) Peek() *flit.Flit {
	if q.size == 0 {
		return nil
	}
	return q.Queue.Peek(q.items, 0)
}

// Push appends a flit. Pushing into a full buffer is a flow-control
// violation and returns an error.
func (q *FIFO) Push(f *flit.Flit) error {
	if f == nil {
		return fmt.Errorf("buffer %s: push nil", q.name)
	}
	if !q.Queue.Push(q.items, f) {
		return fmt.Errorf("buffer %s: push into full buffer (credit protocol violated)", q.name)
	}
	return nil
}

// Pop removes and returns the head flit, or nil when empty.
func (q *FIFO) Pop() *flit.Flit { return q.Queue.Pop(q.items) }

// EndCycle counts the cycle just evaluated at the current occupancy.
func (q *FIFO) EndCycle() { q.Cycle(int(q.size)) }

// SkipIdle counts n skipped cycles in which the owner neither pushed nor
// popped.
func (q *FIFO) SkipIdle(n uint64) { q.Idle(int(q.size), n) }

// Drain removes every queued flit through release (see Queue.Drain).
func (q *FIFO) Drain(release func(*flit.Flit)) { q.Queue.Drain(q.items, release) }

// ResetStats clears the counters without touching queued flits.
func (q *FIFO) ResetStats() { q.Reset() }
