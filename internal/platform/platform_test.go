package platform

import (
	"testing"

	"nocemu/internal/bus"
	"nocemu/internal/control"
	"nocemu/internal/flit"
	"nocemu/internal/receptor"
	"nocemu/internal/regmap"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

func TestConfigValidation(t *testing.T) {
	topo, err := topology.PaperSix()
	if err != nil {
		t.Fatal(err)
	}
	mkTG := func(ep flit.EndpointID) TGSpec {
		return TGSpec{
			Endpoint: ep,
			Gen: &traffic.UniformConfig{
				LenMin: 1, LenMax: 1, GapMin: 1, GapMax: 1,
				Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{100}},
			},
		}
	}
	base := func() Config {
		return Config{
			Name:     "t",
			Topology: topo,
			TGs:      []TGSpec{mkTG(0), mkTG(1), mkTG(2), mkTG(3)},
			TRs: []TRSpec{
				{Endpoint: 100, Mode: receptor.Stochastic},
				{Endpoint: 101, Mode: receptor.Stochastic},
				{Endpoint: 102, Mode: receptor.Stochastic},
				{Endpoint: 103, Mode: receptor.Stochastic},
			},
		}
	}
	if _, err := Build(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	c := base()
	c.Name = ""
	if _, err := Build(c); err == nil {
		t.Error("empty name accepted")
	}
	c = base()
	c.Topology = nil
	if _, err := Build(c); err == nil {
		t.Error("nil topology accepted")
	}
	c = base()
	c.TGs = c.TGs[:3]
	if _, err := Build(c); err == nil {
		t.Error("missing TG spec accepted")
	}
	c = base()
	c.TGs[1].Endpoint = 0
	if _, err := Build(c); err == nil {
		t.Error("duplicate TG endpoint accepted")
	}
	c = base()
	c.TGs[0].Gen = &traffic.BurstConfig{}
	if _, err := Build(c); err == nil {
		t.Error("invalid model config accepted")
	}
	c = base()
	c.TRs[0].Endpoint = 0
	if _, err := Build(c); err == nil {
		t.Error("TR on source endpoint accepted")
	}
	c = base()
	c.Select = "bogus"
	if _, err := Build(c); err == nil {
		t.Error("bogus selection accepted")
	}
	c = base()
	c.Overrides = []RouteOverride{{Switch: 99, Dst: 100, Ports: []int{0}}}
	if _, err := Build(c); err == nil {
		t.Error("bad override accepted")
	}
}

func TestPaperUniformDeliversAll(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 200})
	if err != nil {
		t.Fatal(err)
	}
	_, stopped := p.Run(2_000_000)
	if !stopped {
		t.Fatal("run did not complete")
	}
	tot := p.Totals()
	if tot.PacketsReceived != 800 {
		t.Errorf("received %d packets, want 800", tot.PacketsReceived)
	}
	if tot.PacketsSent != 800 {
		t.Errorf("sent %d packets, want 800", tot.PacketsSent)
	}
	if tot.FlitsReceived != 800*9 {
		t.Errorf("flits = %d", tot.FlitsReceived)
	}
	if !p.Drained() {
		t.Error("platform not drained after completion")
	}
	// Every TR got exactly its generator's packets (1:1 mapping).
	for _, ep := range []flit.EndpointID{100, 101, 102, 103} {
		tr, ok := p.TR(ep)
		if !ok {
			t.Fatalf("missing TR %d", ep)
		}
		if got := tr.Stats().Packets; got != 200 {
			t.Errorf("TR %d packets = %d", ep, got)
		}
	}
	// No link overruns anywhere (flow-control invariant).
	for i := 0; ; i++ {
		l, ok := p.Link(i)
		if !ok {
			break
		}
		if l.Overruns() != 0 {
			t.Errorf("link %d overruns = %d", i, l.Overruns())
		}
	}
}

func TestPaperHotLinksNearNinetyPercent(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up, then measure utilization over a long window.
	p.RunCycles(5_000)
	p.ResetStats()
	p.RunCycles(100_000)
	hotA, hotB, err := p.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	loads := p.LinkLoads()
	for _, hot := range []int{hotA, hotB} {
		if loads[hot] < 0.80 || loads[hot] > 0.97 {
			t.Errorf("hot link %d load = %v, want ~0.90", hot, loads[hot])
		}
	}
	// Cold links (e.g. S2->S5, S3->S4) carry nothing.
	for i, ls := range p.Config().Topology.Links() {
		if i == hotA || i == hotB {
			continue
		}
		if ls.From == 2 || ls.From == 3 {
			if loads[i] > 0.01 {
				t.Errorf("cold link %d (%d->%d) load = %v", i, ls.From, ls.To, loads[i])
			}
		}
	}
}

func TestPaperBurstCongestsMoreThanUniform(t *testing.T) {
	run := func(tr PaperTraffic) Totals {
		p, err := BuildPaper(PaperOptions{Traffic: tr})
		if err != nil {
			t.Fatal(err)
		}
		p.RunCycles(5_000)
		p.ResetStats()
		p.RunCycles(150_000)
		return p.Totals()
	}
	u := run(PaperUniform)
	b := run(PaperBurst)
	if b.CongestionRate <= u.CongestionRate {
		t.Errorf("burst congestion %v <= uniform %v", b.CongestionRate, u.CongestionRate)
	}
}

func TestPaperTraceLatencyAnalyzer(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperTrace, PacketsPerTG: 160, PacketsPerBurst: 8, FlitsPerPacket: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, stopped := p.Run(2_000_000)
	if !stopped {
		t.Fatal("run did not complete")
	}
	tot := p.Totals()
	if tot.PacketsReceived != 4*160 {
		t.Errorf("received = %d", tot.PacketsReceived)
	}
	if tot.MeanNetLatency <= 0 {
		t.Error("latency analyzer saw nothing")
	}
	for _, ep := range []flit.EndpointID{100, 101, 102, 103} {
		tr, _ := p.TR(ep)
		st := tr.Stats()
		if st.NetLatencyMin < 4 {
			t.Errorf("TR %d min latency %v implausibly small", ep, st.NetLatencyMin)
		}
		if st.NetLatencyMax < st.NetLatencyMin {
			t.Errorf("TR %d max < min", ep)
		}
	}
}

func TestBusAccessAndControlModule(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 50})
	if err != nil {
		t.Fatal(err)
	}
	sys := p.System()
	// Control module at bus 0 dev 0.
	if v, err := sys.Read(bus.MakeAddr(BusControl, 0, regmap.RegType)); err != nil || v != regmap.TypeControl {
		t.Errorf("control type = %d, %v", v, err)
	}
	if v, _ := sys.Read(bus.MakeAddr(BusControl, 0, control.RegNumTG)); v != 4 {
		t.Errorf("numTG = %d", v)
	}
	if v, _ := sys.Read(bus.MakeAddr(BusControl, 0, control.RegNumSw)); v != 6 {
		t.Errorf("numSw = %d", v)
	}
	// 6 switches on bus 0 after the control module.
	for dev := uint32(1); dev <= 6; dev++ {
		if v, err := sys.Read(bus.MakeAddr(BusControl, dev, regmap.RegType)); err != nil || v != regmap.TypeSwitch {
			t.Errorf("dev %d type = %d, %v", dev, v, err)
		}
	}
	// TGs on bus 1, TRs on bus 2.
	for dev := uint32(0); dev < 4; dev++ {
		if v, err := sys.Read(bus.MakeAddr(BusTG, dev, regmap.RegType)); err != nil || v != regmap.TypeTG {
			t.Errorf("TG dev %d type = %d, %v", dev, v, err)
		}
		if v, err := sys.Read(bus.MakeAddr(BusTR, dev, regmap.RegType)); err != nil || v != regmap.TypeTR {
			t.Errorf("TR dev %d type = %d, %v", dev, v, err)
		}
	}
	// Run through the processor with a compiled program.
	prog := control.Program{Name: "smoke", Instrs: []control.Instr{
		{Op: control.OpRunUntilDone, Cycles: 1_000_000},
		{Op: control.OpRead64, Dev: "tr100", Reg: regmap.RegTRPackets},
	}}
	c, err := control.Compile(prog, sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Processor().Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("program did not stop on completion")
	}
	if v, ok := res.ReadValue("tr100", regmap.RegTRPackets); !ok || v != 50 {
		t.Errorf("tr100 packets via bus = %d, %v", v, ok)
	}
}

func TestSoftwareOnlyReconfiguration(t *testing.T) {
	// The paper's headline flow property: changing traffic parameters
	// is software-only — no platform rebuild. Run, reconfigure packet
	// length over the bus, run again on the same platform.
	p, err := BuildPaper(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("first run did not complete")
	}
	first := p.Totals()
	if first.FlitsReceived != 30*9*4 {
		t.Fatalf("first run flits = %d", first.FlitsReceived)
	}

	// Reconfigure via registers: packet length 9 -> 4 (len_min first
	// since 4 < current len_max), reset stats (which also rewinds the
	// offered counter, so the limit register is the per-run budget).
	sys := p.System()
	for dev := uint32(0); dev < 4; dev++ {
		tgAddr := func(reg uint32) bus.Addr { return bus.MakeAddr(BusTG, dev, reg) }
		if err := sys.Write(tgAddr(regmap.RegParamBase+0), 4); err != nil { // len_min
			t.Fatal(err)
		}
		if err := sys.Write(tgAddr(regmap.RegParamBase+1), 4); err != nil { // len_max
			t.Fatal(err)
		}
		if err := sys.Write(tgAddr(regmap.RegLimitLo), 30); err != nil {
			t.Fatal(err)
		}
		if err := sys.Write(tgAddr(regmap.RegCtrl), regmap.CtrlEnable|regmap.CtrlResetStats); err != nil {
			t.Fatal(err)
		}
		trAddr := bus.MakeAddr(BusTR, dev, regmap.RegCtrl)
		if err := sys.Write(trAddr, regmap.CtrlResetStats); err != nil {
			t.Fatal(err)
		}
		if err := sys.Write(bus.MakeAddr(BusTR, dev, regmap.RegLimitLo), 30); err != nil {
			t.Fatal(err)
		}
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("second run did not complete")
	}
	second := p.Totals()
	// 30 more packets per TG (limit 60, 30 already offered), 4 flits
	// each, counted from the reset.
	if second.PacketsReceived != 30*4 {
		t.Errorf("second run packets = %d, want 120", second.PacketsReceived)
	}
	if second.FlitsReceived != 30*4*4 {
		t.Errorf("second run flits = %d, want 480 (reconfigured length)", second.FlitsReceived)
	}
}

func TestMeshPlatformWithXYRouting(t *testing.T) {
	topo, err := topology.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSink(100, 8); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSink(101, 6); err != nil {
		t.Fatal(err)
	}
	mkTG := func(ep flit.EndpointID, dst flit.EndpointID) TGSpec {
		return TGSpec{
			Endpoint: ep, Limit: 100,
			Gen: &traffic.UniformConfig{
				LenMin: 2, LenMax: 2, GapMin: 2, GapMax: 2,
				Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}},
			},
		}
	}
	p, err := Build(Config{
		Name: "mesh", Topology: topo, Routing: RoutingXY,
		TGs: []TGSpec{mkTG(0, 100), mkTG(1, 101)},
		TRs: []TRSpec{
			{Endpoint: 100, Mode: receptor.TraceDriven, ExpectPackets: 100},
			{Endpoint: 101, Mode: receptor.TraceDriven, ExpectPackets: 100},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stopped := p.Run(100_000)
	if !stopped {
		t.Fatal("mesh run did not complete")
	}
	if tot := p.Totals(); tot.PacketsReceived != 200 {
		t.Errorf("received = %d", tot.PacketsReceived)
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	run := func() Totals {
		p, err := BuildPaper(PaperOptions{Traffic: PaperBurst, PacketsPerTG: 100, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		p.Run(1_000_000)
		return p.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestPaperPoissonFlavor(t *testing.T) {
	p, err := BuildPaper(PaperOptions{Traffic: PaperPoisson, PacketsPerTG: 150})
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(2_000_000); !stopped {
		t.Fatal("poisson run did not finish")
	}
	if got := p.Totals().PacketsReceived; got != 600 {
		t.Errorf("received = %d", got)
	}
	// Offered load near 45%: measure over a fresh unlimited run.
	p2, err := BuildPaper(PaperOptions{Traffic: PaperPoisson})
	if err != nil {
		t.Fatal(err)
	}
	p2.RunCycles(5_000)
	p2.ResetStats()
	p2.RunCycles(100_000)
	hotA, _, err := p2.PaperHotLinks()
	if err != nil {
		t.Fatal(err)
	}
	load := p2.LinkLoads()[hotA]
	if load < 0.80 || load > 0.98 {
		t.Errorf("poisson hot link load = %v, want ~0.90", load)
	}
}
