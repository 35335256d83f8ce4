package engine

import (
	"fmt"
	"testing"
)

// reg is a two-phase register wire used to connect counter components:
// writes staged during Tick become readable after Commit.
type reg struct {
	cur, next uint64
}

func (r *reg) commit() { r.cur, r.next = r.next, 0 }

// chainNode reads its input register and stages a transformed value on
// its output register — a minimal component with real cross-component
// dataflow, so evaluation-order bugs change the final state.
type chainNode struct {
	name    string
	in, out *reg
	acc     uint64 // running mix of everything seen, order-sensitive
	doneAt  uint64
	ticks   uint64
	commits uint64
}

func (n *chainNode) ComponentName() string { return n.name }

func (n *chainNode) Tick(c uint64) {
	n.ticks++
	v := uint64(0)
	if n.in != nil {
		v = n.in.cur
	}
	n.acc = n.acc*6364136223846793005 + v + c + 1
	if n.out != nil {
		n.out.next = v + 1
	}
}

func (n *chainNode) Commit(c uint64) {
	n.commits++
	if n.out != nil {
		n.out.commit()
	}
}

func (n *chainNode) Done() bool { return n.doneAt > 0 && n.ticks >= n.doneAt }

// buildChain wires count nodes in a ring of registers and registers
// them with a fresh engine.
func buildChain(t testing.TB, count int, doneAt uint64) (*Engine, []*chainNode) {
	t.Helper()
	e := New()
	regs := make([]*reg, count)
	for i := range regs {
		regs[i] = &reg{}
	}
	nodes := make([]*chainNode, count)
	for i := range nodes {
		nodes[i] = &chainNode{
			name:   fmt.Sprintf("n%d", i),
			in:     regs[i],
			out:    regs[(i+1)%count],
			doneAt: doneAt,
		}
		e.MustRegister(nodes[i])
	}
	return e, nodes
}

// digest folds every node's state into one comparable value.
func digest(nodes []*chainNode) []uint64 {
	out := make([]uint64, 0, len(nodes)*3)
	for _, n := range nodes {
		out = append(out, n.acc, n.ticks, n.commits)
	}
	return out
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var workerCounts = []int{1, 2, 4, 7, 16}

// pooled gives e a pool of w workers, released when the test ends.
func pooled(t testing.TB, e *Engine, w int) *Engine {
	t.Helper()
	if err := e.SetWorkers(w); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestParallelRunMatchesSequential(t *testing.T) {
	const nodes, cycles = 11, 500
	seqEng, seqNodes := buildChain(t, nodes, 0)
	seqEng.Run(cycles)
	want := digest(seqNodes)

	for _, w := range workerCounts {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e, ns := buildChain(t, nodes, 0)
			p := pooled(t, e, w)
			if n := p.Run(cycles); n != cycles {
				t.Fatalf("Run returned %d", n)
			}
			if p.Cycle() != cycles {
				t.Fatalf("cycle = %d", p.Cycle())
			}
			if got := digest(ns); !equalDigests(got, want) {
				t.Errorf("parallel state diverged from sequential:\n got %v\nwant %v", got, want)
			}
		})
	}
}

func TestParallelStepAdvancesOneCycle(t *testing.T) {
	e, ns := buildChain(t, 3, 0)
	p := pooled(t, e, 2)
	p.Step()
	p.Step()
	if p.Cycle() != 2 {
		t.Errorf("cycle = %d, want 2", p.Cycle())
	}
	for _, n := range ns {
		if n.ticks != 2 || n.commits != 2 {
			t.Errorf("%s: ticks=%d commits=%d, want 2,2", n.name, n.ticks, n.commits)
		}
	}
}

func TestParallelRunUntilStopCycleMatchesSequential(t *testing.T) {
	const nodes, doneAt = 5, 37
	seqEng, seqNodes := buildChain(t, nodes, doneAt)
	seqN, seqStopped := seqEng.RunUntil(1000)
	want := digest(seqNodes)

	for _, w := range workerCounts {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e, ns := buildChain(t, nodes, doneAt)
			p := pooled(t, e, w)
			n, stopped := p.RunUntil(1000)
			if n != seqN || stopped != seqStopped {
				t.Fatalf("RunUntil = (%d,%v), sequential (%d,%v)", n, stopped, seqN, seqStopped)
			}
			if got := digest(ns); !equalDigests(got, want) {
				t.Errorf("stopped state diverged from sequential")
			}
		})
	}
}

func TestParallelRunUntilHitsCap(t *testing.T) {
	e, _ := buildChain(t, 4, 1<<62)
	p := pooled(t, e, 3)
	n, stopped := p.RunUntil(25)
	if stopped || n != 25 {
		t.Errorf("n=%d stopped=%v, want 25,false", n, stopped)
	}
}

func TestParallelRunUntilAlreadyDoneRunsZeroCycles(t *testing.T) {
	e, ns := buildChain(t, 2, 1) // done after the first tick
	p := pooled(t, e, 2)
	if n, stopped := p.RunUntil(100); n != 1 || !stopped {
		t.Fatalf("first RunUntil = (%d,%v), want (1,true)", n, stopped)
	}
	// Condition already satisfied: no further cycles may execute.
	if n, stopped := p.RunUntil(100); n != 0 || !stopped {
		t.Errorf("second RunUntil = (%d,%v), want (0,true)", n, stopped)
	}
	if ns[0].ticks != 1 {
		t.Errorf("ticks = %d, want 1", ns[0].ticks)
	}
}

func TestParallelRunUntilAborts(t *testing.T) {
	for _, w := range []int{1, 3} {
		e, _ := buildChain(t, 4, 0)
		e.MustRegister(&aborter{name: "dog", abortAt: 5})
		p := pooled(t, e, w)
		n, stopped := p.RunUntil(1000)
		p.Close()
		if stopped || n != 5 {
			t.Errorf("workers=%d: n=%d stopped=%v, want 5,false", w, n, stopped)
		}
	}
}

// serialObserver sums every chain node's tick counter during Tick — a
// cross-component read that is only legal because SerialTicker moves it
// out of the sharded phase.
type serialObserver struct {
	peers []*chainNode
	seen  []uint64
}

func (o *serialObserver) ComponentName() string { return "observer" }
func (o *serialObserver) TickSerially()         {}
func (o *serialObserver) Commit(c uint64)       {}

func (o *serialObserver) Tick(c uint64) {
	var sum uint64
	for _, p := range o.peers {
		sum += p.ticks
	}
	o.seen = append(o.seen, sum)
}

func TestParallelSerialTickerSeesQuiescedCycle(t *testing.T) {
	const nodes, cycles = 6, 50
	run := func(workers int) []uint64 {
		e, ns := buildChain(t, nodes, 0)
		obs := &serialObserver{peers: ns}
		e.MustRegister(obs)
		if workers == 0 {
			e.Run(cycles)
			return obs.seen
		}
		p := pooled(t, e, workers)
		p.Run(cycles)
		return obs.seen
	}
	want := run(0) // sequential: observer registered last sees all ticks
	for _, w := range workerCounts {
		got := run(w)
		if !equalDigests(got, want) {
			t.Errorf("workers=%d: observer trace diverged from sequential", w)
		}
	}
	// Every cycle the observer must have seen exactly nodes*(c+1) ticks.
	for c, sum := range want {
		if sum != uint64(nodes*(c+1)) {
			t.Fatalf("cycle %d: observer saw %d ticks, want %d", c, sum, nodes*(c+1))
		}
	}
}

func TestParallelPicksUpLateRegistrations(t *testing.T) {
	e, _ := buildChain(t, 3, 0)
	p := pooled(t, e, 2)
	p.Run(10)
	late := &chainNode{name: "late"}
	e.MustRegister(late)
	p.Run(10)
	if late.ticks != 10 || late.commits != 10 {
		t.Errorf("late component: ticks=%d commits=%d, want 10,10", late.ticks, late.commits)
	}
}

func TestParallelMoreWorkersThanComponents(t *testing.T) {
	e, ns := buildChain(t, 2, 0)
	p := pooled(t, e, 8)
	p.Run(20)
	for _, n := range ns {
		if n.ticks != 20 {
			t.Errorf("%s ticks = %d", n.name, n.ticks)
		}
	}
}

func TestParallelEmptyEngineRuns(t *testing.T) {
	p := pooled(t, New(), 4)
	if n := p.Run(5); n != 5 {
		t.Errorf("Run = %d", n)
	}
	if p.Cycle() != 5 {
		t.Errorf("cycle = %d", p.Cycle())
	}
}

func TestParallelCloseIsIdempotentAndEngineSurvives(t *testing.T) {
	e, _ := buildChain(t, 3, 0)
	p := pooled(t, e, 3)
	p.Run(5)
	p.Close()
	p.Close()
	// Close released the goroutines, not the engine: the next run starts
	// them again (and the cleanup releases those).
	e.Run(5)
	if e.Cycle() != 10 {
		t.Errorf("engine cycle after pool close = %d, want 10", e.Cycle())
	}
}

func TestParallelResetRewindsCycleOnly(t *testing.T) {
	e, ns := buildChain(t, 2, 0)
	p := pooled(t, e, 2)
	p.Run(4)
	p.Reset()
	if p.Cycle() != 0 {
		t.Errorf("cycle after reset = %d", p.Cycle())
	}
	if ns[0].ticks != 4 {
		t.Errorf("component state was touched: ticks=%d", ns[0].ticks)
	}
}
