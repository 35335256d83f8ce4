package platform

import (
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// randomConfig derives a valid platform configuration from fuzz bytes:
// a mesh of random size, random TG/TR placement, random models and
// parameters. It exercises the whole stack the way a user's arbitrary
// configuration would.
func randomConfig(t *testing.T, seed uint32, wSeed, hSeed, tgSeed, placSeed, modelSeed, lenSeed uint8) Config {
	t.Helper()
	w := int(wSeed%3) + 2
	h := int(hSeed%3) + 2
	topo, err := topology.Mesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	nTG := int(tgSeed%3) + 1
	cfg := Config{
		Name:           "prop",
		Topology:       topo,
		SwitchBufDepth: int(lenSeed%6) + 2,
		Seed:           seed,
	}
	n := w * h
	for i := 0; i < nTG; i++ {
		srcSw := topology.NodeID((int(placSeed) + i*7) % n)
		dstSw := topology.NodeID((int(placSeed) + 3 + i*5) % n)
		src := flit.EndpointID(i)
		dst := flit.EndpointID(100 + i)
		if err := topo.AddSource(src, srcSw); err != nil {
			t.Fatal(err)
		}
		if err := topo.AddSink(dst, dstSw); err != nil {
			t.Fatal(err)
		}
		spec := TGSpec{Endpoint: src, Limit: 40}
		dstCfg := traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}}
		length := uint16(lenSeed%7) + 1
		switch (int(modelSeed) + i) % 3 {
		case 0:
			spec.Gen = &traffic.UniformConfig{
				LenMin: 1, LenMax: length, GapMin: 0, GapMax: uint32(modelSeed % 9),
				Dst: dstCfg, RandomPhase: true,
			}
		case 1:
			spec.Gen = &traffic.BurstConfig{
				POffOn: uint16(modelSeed)*97 + 500, POnOff: uint16(lenSeed)*131 + 2000,
				LenMin: 1, LenMax: length, Dst: dstCfg,
			}
		case 2:
			spec.Gen = &traffic.PoissonConfig{
				Lambda: uint16(modelSeed)*61 + 800,
				LenMin: 1, LenMax: length, Dst: dstCfg,
			}
		}
		cfg.TGs = append(cfg.TGs, spec)
		mode := receptor.Stochastic
		if i%2 == 1 {
			mode = receptor.TraceDriven
		}
		cfg.TRs = append(cfg.TRs, TRSpec{Endpoint: dst, Mode: mode, ExpectPackets: 40})
	}
	return cfg
}

// TestConservationProperty is the platform-wide soundness property: on
// arbitrary mesh platforms with arbitrary traffic, every injected flit
// is delivered exactly once, to the right receptor, with no link
// overruns and no corruption — and the run drains completely.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint32, wSeed, hSeed, tgSeed, placSeed, modelSeed, lenSeed uint8) bool {
		cfg := randomConfig(t, seed, wSeed, hSeed, tgSeed, placSeed, modelSeed, lenSeed)
		p, err := Build(cfg)
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		_, stopped := p.Run(3_000_000)
		if !stopped {
			t.Logf("run did not stop (cfg %d TGs)", len(cfg.TGs))
			return false
		}
		tot := p.Totals()
		if tot.PacketsSent != tot.PacketsReceived {
			t.Logf("packets: sent %d != received %d", tot.PacketsSent, tot.PacketsReceived)
			return false
		}
		if tot.FlitsSent != tot.FlitsReceived {
			t.Logf("flits: sent %d != received %d", tot.FlitsSent, tot.FlitsReceived)
			return false
		}
		if !p.Drained() {
			t.Log("not drained")
			return false
		}
		if p.CorruptedFlits() != 0 {
			t.Log("spurious corruption")
			return false
		}
		for i := 0; ; i++ {
			l, ok := p.Link(i)
			if !ok {
				break
			}
			if l.Overruns() != 0 {
				t.Logf("link %d overruns", i)
				return false
			}
		}
		// Per-flow delivery: each TR got exactly its TG's packets.
		for _, spec := range cfg.TGs {
			tr, ok := p.TR(spec.Endpoint + 100)
			if !ok {
				t.Logf("missing TR %d", spec.Endpoint+100)
				return false
			}
			if got := tr.Stats().Packets; got != 40 {
				t.Logf("TR %d packets = %d", spec.Endpoint+100, got)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDeterminismProperty: identical configurations give identical
// aggregate results, whatever the traffic mix.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint32, wSeed, hSeed, tgSeed, placSeed, modelSeed, lenSeed uint8) bool {
		run := func() Totals {
			cfg := randomConfig(t, seed, wSeed, hSeed, tgSeed, placSeed, modelSeed, lenSeed)
			p, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Run(3_000_000)
			return p.Totals()
		}
		return run() == run()
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestXYMeshDeadlockFreeUnderLoad: dimension-ordered routing is
// deadlock-free — on the mesh by forbidding turns, on the minimally
// routed torus by its dateline classes. A heavily loaded network with
// crossing flows and two-flit buffers must always drain, with the
// watchdog as the oracle: everything sent is received, no flit is left
// in the pool, no wire overran.
func TestXYMeshDeadlockFreeUnderLoad(t *testing.T) {
	// Eight flows between opposite corners and edges, all crossing the
	// center of the mesh (on the torus they take the wrap links instead),
	// each near full injection rate.
	crossing := [][2]topology.NodeID{
		{0, 15}, {15, 0}, {3, 12}, {12, 3},
		{1, 14}, {14, 1}, {7, 8}, {8, 7},
	}
	// Four flows chasing each other two hops at a time around row 0 and
	// four around column 1: their paths close both rings.
	chasing := [][2]topology.NodeID{
		{0, 2}, {1, 3}, {2, 0}, {3, 1},
		{1, 9}, {5, 13}, {9, 1}, {13, 5},
	}
	for _, tc := range []struct {
		topo    string
		routing RoutingScheme
		pairs   [][2]topology.NodeID
	}{
		{"mesh:w=4,h=4", RoutingXY, crossing},
		{"torus:w=4,h=4,minimal=1,vcs=2", "", append(crossing, chasing...)},
	} {
		t.Run(tc.topo, func(t *testing.T) {
			spec, err := topology.ParseSpec(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := topology.FromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Name: "dor-stress", Topology: topo,
				Routing:        tc.routing,
				SwitchBufDepth: 2, // tight buffers: deadlock would show
			}
			for i, pr := range tc.pairs {
				src := flit.EndpointID(i)
				dst := flit.EndpointID(100 + i)
				if err := topo.AddSource(src, pr[0]); err != nil {
					t.Fatal(err)
				}
				if err := topo.AddSink(dst, pr[1]); err != nil {
					t.Fatal(err)
				}
				cfg.TGs = append(cfg.TGs, TGSpec{
					Endpoint: src, Limit: 300,
					Gen: &traffic.UniformConfig{
						LenMin: 8, LenMax: 8, GapMin: 0, GapMax: 0,
						Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}},
					},
				})
				cfg.TRs = append(cfg.TRs, TRSpec{Endpoint: dst, Mode: receptor.Stochastic, ExpectPackets: 300})
			}
			p, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := p.AttachWatchdog(5_000)
			if err != nil {
				t.Fatal(err)
			}
			if _, stopped := p.Run(5_000_000); !stopped {
				if stalled, at := w.Stalled(); stalled {
					t.Fatalf("deadlocked at cycle %d", at)
				}
				t.Fatal("run did not finish")
			}
			tot := p.Totals()
			if want := uint64(len(tc.pairs)) * 300; tot.PacketsReceived != want {
				t.Errorf("received = %d, want %d", tot.PacketsReceived, want)
			}
			if tot.FlitsSent != tot.FlitsReceived {
				t.Errorf("flits sent %d, received %d", tot.FlitsSent, tot.FlitsReceived)
			}
			if live := p.Pool().Live(); live != 0 {
				t.Errorf("%d flits still live after the run drained", live)
			}
			for i := range topo.Links() {
				if l, _ := p.Link(i); l.Overruns() != 0 {
					t.Errorf("link %d overran %d times", i, l.Overruns())
				}
			}
		})
	}
}
