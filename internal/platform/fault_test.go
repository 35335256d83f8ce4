package platform

import (
	"bytes"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/fault"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/receptor"
	"nocemu/internal/regmap"
	"nocemu/internal/state"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

func TestStuckFaultDelaysButLosesNothing(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 100})
	if err != nil {
		t.Fatal(err)
	}
	hotA, _, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	// Take the hot link down for 2000 cycles mid-run.
	if _, err := p.AddFaults([]fault.Spec{
		{Link: hotA, Mode: link.FaultStuck, From: 500, Until: 2_500},
	}); err != nil {
		t.Fatal(err)
	}
	baseline, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 100})
	if err != nil {
		t.Fatal(err)
	}
	bCycles, bStopped := baseline.Run(2_000_000)
	fCycles, fStopped := p.Run(2_000_000)
	if !bStopped || !fStopped {
		t.Fatal("runs did not finish")
	}
	// Nothing lost, nothing corrupted.
	if got := p.Totals().PacketsReceived; got != 400 {
		t.Errorf("received = %d, want 400", got)
	}
	if p.CorruptedFlits() != 0 {
		t.Errorf("corrupted = %d", p.CorruptedFlits())
	}
	// But the faulted run takes longer.
	if fCycles <= bCycles {
		t.Errorf("faulted run (%d cycles) not slower than baseline (%d)", fCycles, bCycles)
	}
	l, _ := p.Link(hotA)
	if l.HeldCycles() == 0 {
		t.Error("stuck fault never held a flit")
	}
}

func TestCorruptFaultDetectedEndToEnd(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 100})
	if err != nil {
		t.Fatal(err)
	}
	hotA, _, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddFaults([]fault.Spec{
		{Link: hotA, Mode: link.FaultCorrupt, From: 100, Until: 400},
	}); err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(2_000_000); !stopped {
		t.Fatal("run did not finish")
	}
	l, _ := p.Link(hotA)
	if l.Corrupted() == 0 {
		t.Fatal("no flits corrupted in window")
	}
	// Every corrupted flit is detected at a receptor, none elsewhere.
	if got, want := p.CorruptedFlits(), l.Corrupted(); got != want {
		t.Errorf("detected %d corrupted flits, link flipped %d", got, want)
	}
	// Delivery is unaffected (corruption does not drop flits).
	if got := p.Totals().PacketsReceived; got != 400 {
		t.Errorf("received = %d", got)
	}
}

func TestAddFaultsValidation(t *testing.T) {
	p, err := BuildPaper(PaperOptions{PacketsPerTG: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]fault.Spec{
		{},
		{{Link: 999, Mode: link.FaultStuck, From: 0, Until: 1}},
		{{Link: 0, Mode: link.FaultMode(9), From: 0, Until: 1}},
		{{Link: 0, Mode: link.FaultStuck, From: 5, Until: 5}},
	}
	for i, specs := range bad {
		if _, err := p.AddFaults(specs); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// deadlockConfig builds a unidirectional 3-ring where every flow is two
// hops and all three compete cyclically — a classic wormhole deadlock
// when packets are longer than the total buffering of a hop.
func deadlockConfig(t *testing.T) Config {
	t.Helper()
	topo, err := topology.New("deadlock-ring", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := topo.AddLink(topology.NodeID(i), topology.NodeID((i+1)%3)); err != nil {
			t.Fatal(err)
		}
	}
	// Source i sends to the sink two hops away.
	for i := 0; i < 3; i++ {
		if err := topo.AddSource(flit.EndpointID(i), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddSink(flit.EndpointID(100+i), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	mkTG := func(i int) TGSpec {
		dst := flit.EndpointID(100 + (i+2)%3)
		return TGSpec{
			Endpoint: flit.EndpointID(i), Limit: 50,
			QueueFlits: 64,
			Gen: &traffic.UniformConfig{
				LenMin: 32, LenMax: 32, GapMin: 0, GapMax: 0,
				Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}},
			},
		}
	}
	return Config{
		Name:           "deadlock",
		Topology:       topo,
		SwitchBufDepth: 2,
		AllowDeadlock:  true, // the point of this platform is to wedge
		TGs:            []TGSpec{mkTG(0), mkTG(1), mkTG(2)},
		TRs: []TRSpec{
			{Endpoint: 100, Mode: receptor.Stochastic, ExpectPackets: 50},
			{Endpoint: 101, Mode: receptor.Stochastic, ExpectPackets: 50},
			{Endpoint: 102, Mode: receptor.Stochastic, ExpectPackets: 50},
		},
	}
}

func TestWatchdogDetectsWormholeDeadlock(t *testing.T) {
	p, err := Build(deadlockConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.AttachWatchdog(1_000)
	if err != nil {
		t.Fatal(err)
	}
	cycles, stopped := p.Run(200_000)
	if stopped {
		t.Fatal("deadlock-prone config completed — deadlock did not form")
	}
	stalled, at := w.Stalled()
	if !stalled {
		t.Fatalf("watchdog silent after %d cycles", cycles)
	}
	if at == 0 || cycles >= 200_000 {
		t.Errorf("aborted at %d after %d cycles; want early watchdog abort", at, cycles)
	}
	// The network really is wedged: packets in flight, none delivered
	// for the patience window.
	tot := p.Totals()
	if tot.FlitsSent == tot.FlitsReceived {
		t.Error("no traffic outstanding at stall")
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 50})
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.AttachWatchdog(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(2_000_000); !stopped {
		t.Fatal("healthy run did not finish")
	}
	if stalled, _ := w.Stalled(); stalled {
		t.Error("watchdog fired on a healthy run")
	}
	if _, err := p.AttachWatchdog(0); err == nil {
		t.Error("zero patience accepted")
	}
}

func TestWatchdogReset(t *testing.T) {
	p, err := Build(deadlockConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.AttachWatchdog(500)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(100_000)
	if stalled, _ := w.Stalled(); !stalled {
		t.Fatal("no stall")
	}
	w.Reset(p.Engine().Cycle())
	if stalled, _ := w.Stalled(); stalled {
		t.Error("reset did not re-arm")
	}
}

// writeLinkFault sets link i's fault mode through the LINK bank's FAULT
// register, as a host does over the bus.
func writeLinkFault(t *testing.T, p *Platform, i int, m link.FaultMode) {
	t.Helper()
	a, ok := p.System().Find("links")
	if !ok {
		t.Fatal("no links device")
	}
	d, _ := p.System().Lookup(a.Bus(), a.Device())
	if err := d.WriteReg(regmap.RegLinkSel, uint32(i)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteReg(regmap.RegLinkFault, uint32(m)); err != nil {
		t.Fatal(err)
	}
}

// TestFaultControllerName pins a campaign's controller name — its
// snapshot section and the Comp of its trace events — to the component
// count Build leaves, whatever was faulted before AddFaults.
func TestFaultControllerName(t *testing.T) {
	for _, preFault := range []bool{false, true} {
		p, err := BuildPaper(PaperOptions{PacketsPerTG: 10})
		if err != nil {
			t.Fatal(err)
		}
		if preFault {
			writeLinkFault(t, p, 0, link.FaultStuck)
		}
		ctrl, err := p.AddFaults([]fault.Spec{{Link: 1, Mode: link.FaultCorrupt, From: 10, Until: 20}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ctrl.ComponentName(), "faults10"; got != want {
			t.Errorf("preFault=%v: controller %q, want %q", preFault, got, want)
		}
	}
}

// TestForkAfterRegisterFault forks a platform that carries a fault
// campaign and a fault set over the bus before it: the fork rebuilds,
// re-adds the campaign and must restore the snapshot, then run on
// exactly as the original does.
func TestForkAfterRegisterFault(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 60})
	if err != nil {
		t.Fatal(err)
	}
	hotA, hotB, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	writeLinkFault(t, p, hotB, link.FaultCorrupt)
	if _, err := p.AddFaults([]fault.Spec{{Link: hotA, Mode: link.FaultStuck, From: 100, Until: 700}}); err != nil {
		t.Fatal(err)
	}
	p.RunCycles(400)
	forks, err := p.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	f := forks[0]
	p.RunCycles(1_000)
	f.RunCycles(1_000)
	// Every section but the pool's, whose free lists keep the order
	// flits were released in, which a restore does not replay.
	want, got := sectionsOf(t, p), sectionsOf(t, f)
	for i := range want {
		if want[i].Name != "pool" && !bytes.Equal(got[i].Body, want[i].Body) {
			t.Errorf("fork diverged from the original in section %s", want[i].Name)
		}
	}
	if p.Totals() != f.Totals() {
		t.Errorf("totals: original %+v, fork %+v", p.Totals(), f.Totals())
	}
	if p.CorruptedFlits() == 0 || p.CorruptedFlits() != f.CorruptedFlits() {
		t.Errorf("corrupted flits: original %d, fork %d", p.CorruptedFlits(), f.CorruptedFlits())
	}
}

func sectionsOf(t *testing.T, p *Platform) []state.Section {
	t.Helper()
	b, err := p.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	_, secs, err := state.ReadSnapshot(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// TestWiresAreOnePlainComponent: the wire arena is registered once, by
// Build, as a plain component — never as an engine arena.
func TestWiresAreOnePlainComponent(t *testing.T) {
	p, err := BuildPaper(PaperOptions{PacketsPerTG: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.eng.Arenas() {
		if a.ComponentName() == p.wires.ComponentName() {
			t.Error("the wire arena is an engine arena")
		}
	}
	if c, ok := p.eng.Lookup(p.wires.ComponentName()); !ok || c != engine.Component(p.wires) {
		t.Error("the wire arena is not registered")
	}
}
