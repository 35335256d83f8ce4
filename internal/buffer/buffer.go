// Package buffer implements the two-phase FIFO queues used as switch
// input buffers.
//
// Buffer size is one of the three switch parameters the paper sweeps
// (number of inputs, number of outputs, size of buffers), and buffer
// occupancy is the raw signal behind the congestion statistics of the
// trace-driven receptors.
//
// The FIFO follows the kernel's two-phase protocol: Push and Pop during
// the Tick phase operate on committed state and stage their effects;
// Commit applies them. Readers within the same cycle therefore always
// observe the state as of the previous cycle, like a synchronous RAM.
//
// Commit also advances the occupancy statistics by one cycle, which is
// all it does in a cycle that staged nothing, and SkipIdle pays exactly
// that for any number of cycles at once. So the switch calls Commit only
// for a lane with a staged push or pop, and pays the cycles in between
// from its own cycle count (SettleTo) before the lane next commits and
// wherever the counters are read, saved or the queue is drained.
package buffer

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/probe"
)

// FIFO is a fixed-capacity two-phase flit queue.
type FIFO struct {
	name  string
	items []*flit.Flit // ring buffer
	head  int
	size  int

	pendingPush *flit.Flit
	pendingPop  bool

	pushes       uint64
	pops         uint64
	sumOccupancy uint64
	maxOccupancy int
	cycles       uint64
	blocked      uint64

	// probe records committed pushes with post-push occupancy; nil when
	// tracing is off.
	probe *probe.Probe
}

// Init initializes a FIFO in place with the given capacity (>= 1) —
// the construction path for dense FIFO storage, where queues live as
// values inside their owning component (switch input buffers) instead
// of behind individual heap pointers.
func Init(q *FIFO, name string, capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("buffer %s: capacity %d < 1", name, capacity)
	}
	*q = FIFO{name: name, items: make([]*flit.Flit, capacity)}
	return nil
}

// MustInit is Init for construction paths where the capacity is static.
func MustInit(q *FIFO, name string, capacity int) {
	if err := Init(q, name, capacity); err != nil {
		panic(err)
	}
}

// New returns an empty FIFO with the given capacity (>= 1).
func New(name string, capacity int) (*FIFO, error) {
	q := &FIFO{}
	if err := Init(q, name, capacity); err != nil {
		return nil, err
	}
	return q, nil
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

// Len returns the committed occupancy.
func (q *FIFO) Len() int { return q.size }

// Empty reports whether the committed queue is empty.
func (q *FIFO) Empty() bool { return q.size == 0 }

// Full reports whether the committed queue plus staged pushes has no
// room for another push this cycle.
func (q *FIFO) Full() bool {
	n := q.size
	if q.pendingPush != nil {
		n++
	}
	if q.pendingPop {
		n--
	}
	return n >= len(q.items)
}

// Peek returns the committed head flit, or nil when empty.
func (q *FIFO) Peek() *flit.Flit {
	if q.size == 0 {
		return nil
	}
	return q.items[q.head]
}

// Push stages the insertion of a flit. At most one push per cycle is
// allowed (the buffer has one write port). Pushing into a full buffer is
// a flow-control violation and returns an error.
func (q *FIFO) Push(f *flit.Flit) error {
	if f == nil {
		return fmt.Errorf("buffer %s: push nil", q.name)
	}
	if q.pendingPush != nil {
		return fmt.Errorf("buffer %s: double push in one cycle", q.name)
	}
	if q.Full() {
		return fmt.Errorf("buffer %s: push into full buffer (credit protocol violated)", q.name)
	}
	q.pendingPush = f
	return nil
}

// Pop stages the removal of the committed head flit and returns it. At
// most one pop per cycle is allowed (one read port). Pop on an empty
// queue returns nil.
func (q *FIFO) Pop() *flit.Flit {
	if q.size == 0 || q.pendingPop {
		return nil
	}
	q.pendingPop = true
	return q.items[q.head]
}

// MarkBlocked records that the head flit existed this cycle but could
// not advance (lost arbitration or no downstream credit). This is the
// congestion signal the paper's receptors count.
func (q *FIFO) MarkBlocked() { q.blocked++ }

// SetProbe attaches the tracing probe (nil disables tracing). The
// owning component commits this FIFO, so the probe shares that
// component's single-producer discipline.
func (q *FIFO) SetProbe(p *probe.Probe) { q.probe = p }

// Commit applies staged operations and advances the occupancy
// statistics.
func (q *FIFO) Commit(cycle uint64) {
	if q.pendingPop {
		q.items[q.head] = nil
		q.head = (q.head + 1) % len(q.items)
		q.size--
		q.pops++
		q.pendingPop = false
	}
	if q.pendingPush != nil {
		q.probe.FlitBuffer(cycle, uint64(q.pendingPush.Packet), q.size+1)
		q.items[(q.head+q.size)%len(q.items)] = q.pendingPush
		q.size++
		q.pushes++
		q.pendingPush = nil
	}
	q.cycles++
	q.sumOccupancy += uint64(q.size)
	if q.size > q.maxOccupancy {
		q.maxOccupancy = q.size
	}
}

// SkipIdle accounts n skipped cycles during which the owner staged no
// operations: each would have committed nothing but still advanced the
// occupancy statistics by the (unchanged) committed size. That includes
// the maximum: no push, no rise, but ResetStats clears it under a queue
// that still holds flits and the next commit brings it back.
func (q *FIFO) SkipIdle(n uint64) {
	q.cycles += n
	q.sumOccupancy += uint64(q.size) * n
	if n > 0 && q.size > q.maxOccupancy {
		q.maxOccupancy = q.size
	}
}

// SettleTo pays the idle cycles a lazily committed FIFO is owed: cycles
// is its owner's count of cycles so far, which the FIFO's own count
// trails by the cycles it was left out of.
func (q *FIFO) SettleTo(cycles uint64) { q.SkipIdle(cycles - q.cycles) }

// Drain removes every queued flit — committed entries and a staged
// push alike — passing each to release (which may be nil). It is the
// end-of-run reclamation path: with pooled flits, every occupied slot
// holds an owned flit that must go back to its freelist. Counters are
// untouched.
func (q *FIFO) Drain(release func(*flit.Flit)) {
	for ; q.size > 0; q.size-- {
		f := q.items[q.head]
		q.items[q.head] = nil
		q.head = (q.head + 1) % len(q.items)
		if release != nil && f != nil {
			release(f)
		}
	}
	q.head = 0
	if q.pendingPush != nil {
		if release != nil {
			release(q.pendingPush)
		}
		q.pendingPush = nil
	}
	q.pendingPop = false
}

// Stats is a snapshot of the buffer's counters.
type Stats struct {
	Pushes, Pops  uint64
	Blocked       uint64
	Cycles        uint64
	MaxOccupancy  int
	MeanOccupancy float64
}

// Stats returns the current counter snapshot.
func (q *FIFO) Stats() Stats {
	s := Stats{
		Pushes: q.pushes, Pops: q.pops, Blocked: q.blocked,
		Cycles: q.cycles, MaxOccupancy: q.maxOccupancy,
	}
	if q.cycles > 0 {
		s.MeanOccupancy = float64(q.sumOccupancy) / float64(q.cycles)
	}
	return s
}

// ResetStats clears the counters without touching queued flits.
func (q *FIFO) ResetStats() {
	q.pushes, q.pops, q.blocked, q.cycles, q.sumOccupancy = 0, 0, 0, 0, 0
	q.maxOccupancy = 0
}
