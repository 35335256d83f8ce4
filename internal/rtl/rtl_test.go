package rtl

import (
	"strings"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
)

func TestRTLDeliversPaperTraffic(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{
		Traffic: platform.PaperUniform, PacketsPerTG: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, done := p.RunUntilDone(200_000)
	if !done {
		t.Fatalf("not done after %d cycles (recv %d)", run, p.PacketsReceived())
	}
	if p.PacketsReceived() != 200 {
		t.Errorf("received = %d, want 200", p.PacketsReceived())
	}
	if p.FlitsReceived() != 200*9 {
		t.Errorf("flits = %d", p.FlitsReceived())
	}
	for _, ep := range []flit.EndpointID{100, 101, 102, 103} {
		if got := p.PacketsReceivedAt(ep); got != 50 {
			t.Errorf("TR %d packets = %d", ep, got)
		}
	}
	st := p.KernelStats()
	if st.Events == 0 || st.Activations == 0 || st.DeltaCycles == 0 {
		t.Errorf("kernel stats empty: %+v", st)
	}
}

// The headline equivalence check: the RTL backend and the fast
// emulation engine, given the same configuration and seeds, deliver
// exactly the same packets to the same receptors.
func TestRTLMatchesEmulator(t *testing.T) {
	type mkConfig func(perTG uint64) (platform.Config, error)
	paper := func(traf platform.PaperTraffic) mkConfig {
		return func(perTG uint64) (platform.Config, error) {
			return platform.PaperConfig(platform.PaperOptions{Traffic: traf, PacketsPerTG: perTG, Seed: 3})
		}
	}
	// Zoo platforms under NetConfig uniform traffic: their stochastic
	// receptors never report done, so the cycle budget is sized to let
	// every bounded generator finish and the network drain.
	zoo := func(spec string) mkConfig {
		return func(perTG uint64) (platform.Config, error) {
			ts, err := topology.ParseSpec(spec)
			if err != nil {
				return platform.Config{}, err
			}
			return platform.NetConfig(platform.NetOptions{Topo: ts, PacketsPerTG: perTG, Seed: 3})
		}
	}
	for _, tc := range []struct {
		name          string
		cfg           mkConfig
		perTG, cycles uint64
	}{
		{"paper-uniform", paper(platform.PaperUniform), 80, 2_000_000},
		{"paper-burst", paper(platform.PaperBurst), 80, 2_000_000},
		{"mesh3x3", zoo("mesh:w=3,h=3"), 40, 20_000},
		{"butterfly2x2", zoo("butterfly:w=2,h=2"), 40, 20_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg(tc.perTG)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.perTG * uint64(len(cfg.TGs))
			emu, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			emu.Run(tc.cycles)
			if got := emu.Totals().PacketsReceived; got != want {
				t.Fatalf("emulator delivered %d of %d packets", got, want)
			}
			sim, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, done := sim.RunUntilDone(tc.cycles); !done {
				t.Fatal("rtl did not finish")
			}
			for _, spec := range cfg.TRs {
				etr, _ := emu.TR(spec.Endpoint)
				if got, want := sim.PacketsReceivedAt(spec.Endpoint), etr.Stats().Packets; got != want {
					t.Errorf("TR %d rtl=%d emu=%d", spec.Endpoint, got, want)
				}
			}
			if got, want := sim.FlitsReceived(), emu.Totals().FlitsReceived; got != want {
				t.Errorf("flits rtl=%d emu=%d", got, want)
			}
		})
	}
}

// TestRTLRejectsAdaptive: the backend refuses, with an error, what it
// does not model — adaptive selection, and virtual channels (its
// switches have one lane per port).
func TestRTLRejectsAdaptive(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Select = routing.Adaptive
	if _, err := Build(cfg); err == nil {
		t.Error("adaptive selection accepted")
	}

	spec, err := topology.ParseSpec("torus:w=4,h=4,minimal=1,vcs=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = platform.NetConfig(platform.NetOptions{Topo: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "virtual channels") {
		t.Errorf("two-channel torus: err = %v, want a virtual-channel rejection", err)
	}
}

func TestRTLRejectsInvalidConfig(t *testing.T) {
	if _, err := Build(platform.Config{Name: "x"}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRTLKernelWorkScalesWithTraffic(t *testing.T) {
	// More packets -> more signal events; the dynamic-work story of
	// Table 2 must hold within the backend itself.
	load := func(n uint64) uint64 {
		cfg, err := platform.PaperConfig(platform.PaperOptions{
			Traffic: platform.PaperUniform, PacketsPerTG: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.RunUntilDone(500_000)
		return p.KernelStats().Events
	}
	if e10, e40 := load(10), load(40); e40 <= e10 {
		t.Errorf("events did not grow with traffic: %d vs %d", e10, e40)
	}
}
