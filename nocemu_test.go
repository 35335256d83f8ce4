package nocemu_test

import (
	"bytes"
	"strings"
	"testing"

	"nocemu"
)

func TestFacadeQuickstart(t *testing.T) {
	cfg, err := nocemu.PaperConfig(nocemu.PaperOptions{
		Traffic: nocemu.PaperUniform, PacketsPerTG: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nocemu.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("run did not complete")
	}
	if p.Totals().PacketsReceived != 100 {
		t.Errorf("received = %d", p.Totals().PacketsReceived)
	}
	syn, err := nocemu.Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nocemu.WriteReport(&buf, p, syn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NoC emulation report") {
		t.Error("report malformed")
	}
	buf.Reset()
	if err := nocemu.WriteJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "totals") {
		t.Error("JSON malformed")
	}
	buf.Reset()
	if err := nocemu.WriteHistograms(&buf, p, 30); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("histograms empty")
	}
}

func TestFacadeFullFlow(t *testing.T) {
	cfg, err := nocemu.PaperConfig(nocemu.PaperOptions{
		Traffic: nocemu.PaperTrace, PacketsPerTG: 32, FlitsPerPacket: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nocemu.Run(cfg, nocemu.Program{}, nocemu.FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.PacketsReceived != 4*32 {
		t.Errorf("received = %d", rep.Totals.PacketsReceived)
	}
	if rep.Synthesis == nil {
		t.Error("no synthesis report")
	}
	if rep.Totals.MeanNetLatency <= 0 {
		t.Error("no latency measured")
	}
}

func TestFacadeCustomPlatform(t *testing.T) {
	topo, err := nocemu.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSink(100, 2); err != nil {
		t.Fatal(err)
	}
	p, err := nocemu.Build(nocemu.Config{
		Name:     "ring-demo",
		Topology: topo,
		TGs: []nocemu.TGSpec{{
			Endpoint: 0, Limit: 50,
			Gen: &nocemu.PoissonConfig{
				Lambda: 6554, LenMin: 2, LenMax: 6,
				Dst: nocemu.DstConfig{Policy: nocemu.DstFixed, Dsts: []nocemu.EndpointID{100}},
			},
		}},
		TRs: []nocemu.TRSpec{{Endpoint: 100, Mode: nocemu.TraceDriven, ExpectPackets: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(100_000); !stopped {
		t.Fatal("run did not complete")
	}
	tr, _ := p.TR(100)
	if tr.Stats().Packets != 50 {
		t.Errorf("packets = %d", tr.Stats().Packets)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr, err := nocemu.SynthBurstTrace(nocemu.BurstTraceConfig{
		Name: "t", Dst: 1, NumBursts: 2, PacketsPerBurst: 3,
		FlitsPerPacket: 2, Load: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nocemu.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := nocemu.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 6 {
		t.Errorf("records = %d", len(got.Records))
	}
}

func TestFacadeAddrAndTopologies(t *testing.T) {
	a := nocemu.MakeAddr(2, 7, 0x10)
	if a.Bus() != 2 || a.Device() != 7 || a.Reg() != 0x10 {
		t.Errorf("addr fields = %d %d %x", a.Bus(), a.Device(), a.Reg())
	}
	if _, err := nocemu.Tree(2, 2); err != nil {
		t.Errorf("tree: %v", err)
	}
	if got := nocemu.TreeLeaves(2, 2); len(got) != 4 {
		t.Errorf("leaves = %v", got)
	}
	if _, err := nocemu.FullyConnected(3); err != nil {
		t.Errorf("full: %v", err)
	}
	if _, err := nocemu.Torus(3, 3); err != nil {
		t.Errorf("torus: %v", err)
	}
	if _, err := nocemu.Star(3); err != nil {
		t.Errorf("star: %v", err)
	}
	if _, err := nocemu.Line(3); err != nil {
		t.Errorf("line: %v", err)
	}
	if _, err := nocemu.Mesh(2, 2); err != nil {
		t.Errorf("mesh: %v", err)
	}
	if _, err := nocemu.PaperSix(); err != nil {
		t.Errorf("paper-six: %v", err)
	}
	if _, err := nocemu.NewTopology("x", 2); err != nil {
		t.Errorf("new: %v", err)
	}
}

func TestFacadeFaultsAndWatchdog(t *testing.T) {
	p, err := nocemu.BuildPaper(nocemu.PaperOptions{Traffic: nocemu.PaperUniform, PacketsPerTG: 50})
	if err != nil {
		t.Fatal(err)
	}
	hotA, _, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddFaults([]nocemu.FaultSpec{
		{Link: hotA, Mode: nocemu.FaultCorrupt, From: 10, Until: 50},
	}); err != nil {
		t.Fatal(err)
	}
	w, err := p.AttachWatchdog(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := p.Run(1_000_000); !done {
		t.Fatal("run did not finish")
	}
	if stalled, _ := w.Stalled(); stalled {
		t.Error("watchdog fired on healthy run")
	}
	if p.CorruptedFlits() == 0 {
		t.Error("no corruption detected through facade")
	}
}

func TestFacadeBinaryTraceRoundTrip(t *testing.T) {
	tr, err := nocemu.SynthCBRTrace(nocemu.CBRTraceConfig{
		Name: "c", Dst: 1, NumPackets: 4, Len: 2, Period: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nocemu.WriteTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := nocemu.ReadTraceBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 4 {
		t.Errorf("records = %d", len(got.Records))
	}
}
