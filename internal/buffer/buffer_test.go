package buffer

import (
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
)

func mkFlit(seq uint64) *flit.Flit {
	return &flit.Flit{
		Kind: flit.HeadTail, Packet: flit.MakePacketID(0, seq),
		Src: 0, Dst: 1, PacketLen: 1,
	}
}

func TestNewValidatesCapacity(t *testing.T) {
	if _, err := New("q", 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New("q", -3); err == nil {
		t.Error("negative capacity accepted")
	}
	q, err := New("q", 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 4 || q.Name() != "q" {
		t.Errorf("cap=%d name=%q", q.Cap(), q.Name())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew("q", 0)
}

func TestPushVisibleAtOnce(t *testing.T) {
	q := MustNew("q", 2)
	f := mkFlit(0)
	if err := q.Push(f); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 || q.Peek() != f {
		t.Errorf("after the push: len=%d peek=%v", q.Len(), q.Peek())
	}
	if s := q.Stats(); s.Pushes != 1 || s.Cycles != 0 {
		t.Errorf("stats = %+v: a push counts itself, not a cycle", s)
	}
}

func TestPopTakesEffectAtOnce(t *testing.T) {
	q := MustNew("q", 2)
	f0, f1 := mkFlit(0), mkFlit(1)
	for _, f := range []*flit.Flit{f0, f1} {
		if err := q.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Pop(); got != f0 {
		t.Errorf("pop = %v, want f0", got)
	}
	if q.Len() != 1 || q.Peek() != f1 {
		t.Errorf("after the pop: len=%d peek=%v", q.Len(), q.Peek())
	}
	if got := q.Pop(); got != f1 || !q.Empty() {
		t.Errorf("second pop = %v with len %d, want f1 and an empty queue", got, q.Len())
	}
}

// TestSimultaneousPushPopAtFull: an owner that pops the head before it
// pushes — the ejector's order within a cycle — moves a flit through a
// full buffer every cycle.
func TestSimultaneousPushPopAtFull(t *testing.T) {
	q := MustNew("q", 1)
	if err := q.Push(mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	q.EndCycle()
	// Full buffer: the pop frees a slot in the same cycle, so the push is
	// legal.
	if q.Pop() == nil {
		t.Fatal("pop failed")
	}
	if err := q.Push(mkFlit(1)); err != nil {
		t.Errorf("push after pop rejected: %v", err)
	}
	q.EndCycle()
	if q.Len() != 1 || q.Peek().Packet.Seq() != 1 {
		t.Error("simultaneous push/pop produced wrong state")
	}
	if s := q.Stats(); s.Cycles != 2 || s.MaxOccupancy != 1 || s.MeanOccupancy != 1 {
		t.Errorf("stats = %+v, want 2 cycles at occupancy 1", s)
	}
}

func TestPushErrors(t *testing.T) {
	q := MustNew("q", 1)
	if err := q.Push(nil); err == nil {
		t.Error("nil push accepted")
	}
	if err := q.Push(mkFlit(0)); err != nil {
		t.Fatal(err)
	}
	if !q.Full() {
		t.Error("Full() false on full buffer")
	}
	if err := q.Push(mkFlit(2)); err == nil {
		t.Error("push into full buffer accepted")
	}
	if q.Len() != 1 || q.Stats().Pushes != 1 {
		t.Errorf("a rejected push changed the queue: len=%d, %+v", q.Len(), q.Stats())
	}
}

func TestPopEmpty(t *testing.T) {
	q := MustNew("q", 2)
	if q.Pop() != nil {
		t.Error("pop on empty returned flit")
	}
	if !q.Empty() {
		t.Error("Empty() false on empty buffer")
	}
}

func TestStatsCounters(t *testing.T) {
	q := MustNew("q", 4)
	for c := uint64(0); c < 3; c++ {
		if err := q.Push(mkFlit(c)); err != nil {
			t.Fatal(err)
		}
		q.EndCycle()
	}
	q.MarkBlocked()
	q.Pop()
	q.EndCycle()
	s := q.Stats()
	if s.Pushes != 3 || s.Pops != 1 || s.Blocked != 1 || s.Cycles != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxOccupancy != 3 {
		t.Errorf("max occupancy = %d, want 3", s.MaxOccupancy)
	}
	// Occupancies at the end of each cycle: 1,2,3,2 -> mean 2.
	if s.MeanOccupancy != 2 {
		t.Errorf("mean occupancy = %v, want 2", s.MeanOccupancy)
	}
	q.ResetStats()
	s = q.Stats()
	if s.Pushes != 0 || s.Cycles != 0 || s.MaxOccupancy != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	if q.Len() != 2 {
		t.Error("ResetStats touched contents")
	}
}

// Property: the FIFO preserves order and never loses or duplicates
// flits, for any interleaving of pushes and pops within capacity.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(capSeed uint8, ops []bool) bool {
		capacity := int(capSeed%7) + 1
		q := MustNew("q", capacity)
		var pushed, popped []uint64
		seq := uint64(0)
		for _, isPush := range ops {
			if isPush {
				if !q.Full() {
					if err := q.Push(mkFlit(seq)); err != nil {
						return false
					}
					pushed = append(pushed, seq)
					seq++
				}
			} else if f := q.Pop(); f != nil {
				popped = append(popped, f.Packet.Seq())
			}
			q.EndCycle()
		}
		// Drain.
		for !q.Empty() {
			f := q.Pop()
			if f == nil {
				return false
			}
			popped = append(popped, f.Packet.Seq())
			q.EndCycle()
		}
		if len(popped) != len(pushed) {
			return false
		}
		for i := range popped {
			if popped[i] != pushed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity under the Full() guard.
func TestFIFOCapacityInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		q := MustNew("q", 3)
		for c, op := range ops {
			switch op % 3 {
			case 0:
				if !q.Full() {
					if err := q.Push(mkFlit(uint64(c))); err != nil {
						return false
					}
				}
			case 1:
				q.Pop()
			case 2:
				if !q.Full() {
					if err := q.Push(mkFlit(uint64(c))); err != nil {
						return false
					}
				}
				q.Pop()
			}
			q.EndCycle()
			if q.Len() > q.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a FIFO counted only in the cycles that push or pop it, and
// paid the cycles in between through SettleTo, counts what a FIFO
// counted every cycle counts — for any interleaving of pushes, pops,
// stalls, idle cycles and statistics resets (a reset under a non-empty
// queue is where the maximum has to come back without a push).
func TestLazyCommitMatchesEveryCycle(t *testing.T) {
	f := func(ops []uint8) bool {
		every, lazy := MustNew("q", 3), MustNew("q", 3)
		cycles := uint64(0) // the owner's count, reset with the statistics
		for c, op := range ops {
			start, acted := every.Len(), false
			for _, q := range []*FIFO{every, lazy} {
				switch op % 8 {
				case 0, 1:
					acted = !q.Full() && q.Push(mkFlit(uint64(c))) == nil
				case 2, 3:
					acted = q.Pop() != nil
				case 4:
					q.ResetStats()
					cycles = 0
				case 5:
					if !q.Empty() {
						q.MarkBlocked()
					}
				}
			}
			every.EndCycle()
			if acted {
				lazy.Counters.SettleTo(start, cycles) // at the size the idle cycles had
				lazy.EndCycle()
			}
			cycles++
		}
		lazy.Counters.SettleTo(lazy.Len(), cycles)
		return every.Stats() == lazy.Stats() && every.Len() == lazy.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
