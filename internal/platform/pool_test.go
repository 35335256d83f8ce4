package platform

import (
	"testing"

	"nocemu/internal/fault"
	"nocemu/internal/link"
)

// TestFaultRunPoolBalance runs the paper platform through overlapping
// stuck and corrupt fault windows to completion, then drains it: every
// flit the injectors acquired must be back in the pool. Faults must
// neither leak flits nor change the delivered-packet count.
func TestFaultRunPoolBalance(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 50})
	if err != nil {
		t.Fatal(err)
	}
	hotA, hotB, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddFaults([]fault.Spec{
		{Link: hotA, Mode: link.FaultStuck, From: 200, Until: 1_200},
		{Link: hotB, Mode: link.FaultCorrupt, From: 100, Until: 600},
	}); err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(2_000_000); !stopped {
		t.Fatal("faulted run did not finish")
	}
	if got := p.Totals().PacketsReceived; got != 200 {
		t.Errorf("received = %d, want 200", got)
	}
	pool := p.Pool()
	if pool.Acquired() == 0 {
		t.Fatal("pool never used")
	}
	p.Drain()
	if live := pool.Live(); live != 0 {
		t.Errorf("pool.Live() = %d after completed faulted run + drain, want 0", live)
	}
	if acq, rel := pool.Acquired(), pool.Released(); acq != rel {
		t.Errorf("acquired %d != released %d", acq, rel)
	}
	for _, sh := range pool.Shards() {
		if sh.Acquired() != sh.Released() {
			t.Errorf("shard of endpoint %d: acquired %d released %d", sh.Owner(), sh.Acquired(), sh.Released())
		}
	}
}

// TestDeadlockedRunDrainReclaims wedges a wormhole network (flits stuck
// in locked switch buffers, partial packets everywhere) and checks
// Drain still reclaims every live flit — the hardest reclamation case,
// since nothing reaches its normal ejector release point.
func TestDeadlockedRunDrainReclaims(t *testing.T) {
	p, err := Build(deadlockConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(20_000); stopped {
		t.Fatal("deadlock-prone config completed")
	}
	pool := p.Pool()
	before := pool.Live()
	if before == 0 {
		t.Fatal("no live flits in a wedged network")
	}
	p.Drain()
	if live := pool.Live(); live != 0 {
		t.Errorf("pool.Live() = %d after draining wedged run (was %d), want 0", live, before)
	}
}

// TestSteadyStateZeroAlloc is the allocation-regression guard for the
// data path: after warm-up, running cycles must not allocate. Any
// steady-state allocation (flit churn, queue regrowth, assembler maps)
// fails this test before it shows up in the benchmarks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: fill pipelines, grow pool freelists, histogram bins and
	// monitor buffers to their steady-state sizes.
	p.RunCycles(2_000)
	avg := testing.AllocsPerRun(20, func() {
		p.RunCycles(100)
	})
	if avg > 0 {
		t.Errorf("steady-state RunCycles allocates %.1f objects per 100 cycles, want 0", avg)
	}
}
