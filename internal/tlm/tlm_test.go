package tlm

import (
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(engine.New()); err == nil {
		t.Error("empty engine accepted")
	}
}

// recorder checks phase ordering under the dynamic scheduler.
type recorder struct {
	name string
	log  *[]string
}

func (r *recorder) ComponentName() string { return r.name }
func (r *recorder) Tick(c uint64)         { *r.log = append(*r.log, r.name+":tick") }
func (r *recorder) Commit(c uint64)       { *r.log = append(*r.log, r.name+":commit") }

func TestPhaseOrderingPreserved(t *testing.T) {
	eng := engine.New()
	var log []string
	eng.MustRegister(&recorder{name: "a", log: &log})
	eng.MustRegister(&recorder{name: "b", log: &log})
	sim, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1)
	want := []string{"a:tick", "b:tick", "a:commit", "b:commit"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if sim.Cycle() != 1 {
		t.Errorf("cycle = %d", sim.Cycle())
	}
}

// The equivalence check: TLM scheduling produces exactly the emulator's
// results, because the components are shared and the phase order is
// preserved — on the paper platform and on zoo platforms whose arenas
// hold more elements (NetConfig uniform traffic; their stochastic
// receptors never report done, so both backends run a fixed budget
// sized to let every bounded generator finish and the network drain).
func TestTLMMatchesEmulator(t *testing.T) {
	const zooPerTG = 40
	zoo := func(spec string) func() (platform.Config, error) {
		return func() (platform.Config, error) {
			ts, err := topology.ParseSpec(spec)
			if err != nil {
				return platform.Config{}, err
			}
			return platform.NetConfig(platform.NetOptions{Topo: ts, PacketsPerTG: zooPerTG, Seed: 5})
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    func() (platform.Config, error)
		cycles uint64
		stops  bool
	}{
		{"paper-burst", func() (platform.Config, error) {
			return platform.PaperConfig(platform.PaperOptions{Traffic: platform.PaperBurst, PacketsPerTG: 60, Seed: 5})
		}, 2_000_000, true},
		{"mesh3x3", zoo("mesh:w=3,h=3"), 20_000, false},
		{"butterfly2x2", zoo("butterfly:w=2,h=2"), 20_000, false},
		// Two lanes per switch port, two credit wires per arena pair: the
		// arenas carry them, so this scheduler needs nothing for it.
		{"torus4x4-dateline", zoo("torus:w=4,h=4,minimal=1,vcs=2"), 20_000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg()
			if err != nil {
				t.Fatal(err)
			}
			// Engine run.
			pe, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, stopped := pe.Run(tc.cycles); stopped != tc.stops {
				t.Fatalf("emulator stopped=%v, want %v", stopped, tc.stops)
			}
			// TLM run over a fresh identical platform.
			pt, err := platform.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := New(pt.Engine())
			if err != nil {
				t.Fatal(err)
			}
			if _, stopped := sim.RunUntil(tc.cycles); stopped != tc.stops {
				t.Fatalf("tlm stopped=%v, want %v", stopped, tc.stops)
			}
			for _, spec := range cfg.TRs {
				a, _ := pe.TR(spec.Endpoint)
				b, _ := pt.TR(spec.Endpoint)
				if a.Stats() != b.Stats() {
					t.Errorf("TR %d stats differ:\n%+v\n%+v", spec.Endpoint, a.Stats(), b.Stats())
				}
			}
			et, tt := pe.Totals(), pt.Totals()
			if et.FlitsReceived != tt.FlitsReceived {
				t.Errorf("flits tlm=%d emu=%d", tt.FlitsReceived, et.FlitsReceived)
			}
			if want := zooPerTG * uint64(len(cfg.TGs)); !tc.stops && tt.PacketsReceived != want {
				t.Errorf("tlm delivered %d of %d packets within the budget", tt.PacketsReceived, want)
			}
		})
	}
}

// TestDispatchesPerSignal pins the per-element expansion Table 2's
// SystemC-like row rests on: every cycle dispatches one evaluate and
// one update process per plain component and per arena element — each
// switch — not one pair per arena. A wire is no component: its writer
// updates it, and the wire arena, which commits faulted wires only, is
// one plain component.
func TestDispatchesPerSignal(t *testing.T) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := p.Engine()
	procs := eng.NumComponents() - len(eng.Arenas())
	for _, a := range eng.Arenas() {
		procs += a.Len()
	}
	sim, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 50
	sim.Run(cycles)
	if got, want := sim.Stats().Dispatches, uint64(2*procs*cycles); got != want {
		t.Errorf("dispatches = %d, want %d (2 x %d processes x %d cycles)", got, want, procs, cycles)
	}
}

func TestRunUntilCap(t *testing.T) {
	eng := engine.New()
	var log []string
	eng.MustRegister(&recorder{name: "a", log: &log})
	sim, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	// No stoppers: run to cap.
	if n, stopped := sim.RunUntil(7); stopped || n != 7 {
		t.Errorf("n=%d stopped=%v", n, stopped)
	}
}

func TestHeapOpsScaleWithComponentsAndCycles(t *testing.T) {
	mk := func(n int) *Simulator {
		eng := engine.New()
		var log []string
		for i := 0; i < n; i++ {
			eng.MustRegister(&recorder{name: string(rune('a' + i)), log: &log})
		}
		sim, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a := mk(2)
	a.Run(10)
	b := mk(8)
	b.Run(10)
	if b.Stats().HeapOps <= a.Stats().HeapOps {
		t.Error("heap ops do not scale with component count")
	}
	c := mk(2)
	c.Run(100)
	if c.Stats().HeapOps <= a.Stats().HeapOps {
		t.Error("heap ops do not scale with cycles")
	}
}
