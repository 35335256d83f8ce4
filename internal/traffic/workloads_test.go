package traffic

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
)

func zooEnv(n int, inj float64, seed uint32) WorkloadEnv {
	env := WorkloadEnv{Injection: inj, PacketLen: 4, Seed: seed}
	for i := 0; i < n; i++ {
		env.Sources = append(env.Sources, flit.EndpointID(i))
		env.Sinks = append(env.Sinks, flit.EndpointID(n+i))
	}
	return env
}

func TestWorkloadRegistryLists(t *testing.T) {
	want := []string{"flows", "hotspot", "incast", "script", "uniform"}
	got := WorkloadKinds()
	if len(got) != len(want) {
		t.Fatalf("WorkloadKinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WorkloadKinds() = %v, want %v", got, want)
		}
	}
	if _, ok := LookupWorkload("uniform"); !ok {
		t.Error("uniform workload missing")
	}
	if _, ok := LookupWorkload("bogus"); ok {
		t.Error("bogus workload found")
	}
}

// TestWorkloadsEmitValidConfigs: every registered workload emits one
// validated config per source at several sizes and injection rates.
func TestWorkloadsEmitValidConfigs(t *testing.T) {
	for _, w := range Workloads() {
		for _, n := range []int{2, 9, 64} {
			for _, inj := range []float64{0.05, 0.5, 1.0} {
				specs, err := w.Build(zooEnv(n, inj, 3))
				if err != nil {
					t.Fatalf("%s n=%d inj=%g: %v", w.Kind, n, inj, err)
				}
				if len(specs) != n {
					t.Fatalf("%s n=%d: %d specs", w.Kind, n, len(specs))
				}
				for i, s := range specs {
					// The script workload is config-free by design:
					// its traffic arrives via ScriptGen.Append at run
					// time.
					if s == nil {
						if w.Kind != "script" {
							t.Fatalf("%s source %d: no model config", w.Kind, i)
						}
						continue
					}
					if _, err := s.New(); err != nil {
						t.Fatalf("%s source %d: %s config does not build: %v", w.Kind, i, s.Model(), err)
					}
				}
			}
		}
		if _, err := w.Build(WorkloadEnv{}); err == nil {
			t.Errorf("%s accepted an empty env", w.Kind)
		}
		if _, err := w.Build(zooEnv(4, 1.5, 0)); err == nil {
			t.Errorf("%s accepted injection 1.5", w.Kind)
		}
	}
}

// TestHotspotVictimIsSeedControlled: the hotspot victim moves with the
// workload seed and every source aims 25% of draws at it.
func TestHotspotVictimIsSeedControlled(t *testing.T) {
	w, _ := LookupWorkload("hotspot")
	a, err := w.Build(zooEnv(8, 0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Build(zooEnv(8, 0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	victim := func(specs []Config) flit.EndpointID {
		hot := specs[0].(*UniformConfig).Dst.Hot
		if len(hot) != 1 {
			t.Fatalf("hot set %v", hot)
		}
		for _, s := range specs {
			dst := s.(*UniformConfig).Dst
			if len(dst.Hot) != 1 || dst.Hot[0] != hot[0] {
				t.Fatal("sources disagree on the victim")
			}
			if dst.HotQ16 != 16384 {
				t.Fatalf("HotQ16 = %d", dst.HotQ16)
			}
		}
		return hot[0]
	}
	if victim(a) == victim(b) {
		t.Error("victim did not move with the seed")
	}
}

// TestIncastWaveSynchronization: all sources share the epoch, offset
// and rotation so their waves converge on one sink at a time.
func TestIncastWaveSynchronization(t *testing.T) {
	w, _ := LookupWorkload("incast")
	specs, err := w.Build(zooEnv(6, 0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	first := specs[0].(*IncastConfig)
	for i, s := range specs {
		c := s.(*IncastConfig)
		if c.Epoch != first.Epoch || c.Offset != first.Offset ||
			c.PacketsPerWave != first.PacketsPerWave {
			t.Fatalf("source %d wave schedule differs", i)
		}
		if c.Dst.Policy != DstRoundRobin || len(c.Dst.Dsts) != 6 {
			t.Fatalf("source %d rotation %v over %d sinks", i, c.Dst.Policy, len(c.Dst.Dsts))
		}
	}
}

// TestSharedSinkDrawsMatchCopies: the uniform, hotspot and flows
// workloads hand every source the one shared sink list with its own
// index excluded. Every draw, and the random stream behind it, must be
// what the same seed draws from a materialized "every sink but mine"
// list, the form every fixture was recorded with. One stream of 10 000
// draws per size visits the sources in turn, so every source draws.
func TestSharedSinkDrawsMatchCopies(t *testing.T) {
	const draws = 10_000
	for _, kind := range []string{"uniform", "hotspot", "flows"} {
		w, _ := LookupWorkload(kind)
		for _, n := range []int{2, 3, 17, 1024} {
			env := zooEnv(n, 0.1, 5)
			specs, err := w.Build(env)
			if err != nil {
				t.Fatal(err)
			}
			shared := make([]*dstChooser, n)
			copies := make([]*dstChooser, n)
			for self, s := range specs {
				var dst DstConfig
				switch c := s.(type) {
				case *UniformConfig:
					dst = c.Dst
				case *FlowConfig:
					dst = c.Dst
				}
				if &dst.Dsts[0] != &env.Sinks[0] {
					t.Fatalf("%s n=%d source %d: sink list copied, not shared", kind, n, self)
				}
				copied := dst
				copied.skip = 0
				copied.Dsts = append(append([]flit.EndpointID(nil), env.Sinks[:self]...), env.Sinks[self+1:]...)
				if shared[self], err = newDstChooser(dst); err != nil {
					t.Fatal(err)
				}
				if copies[self], err = newDstChooser(copied); err != nil {
					t.Fatal(err)
				}
			}
			ra, rb := rng.New(0xACE1), rng.New(0xACE1)
			for i := 0; i < draws; i++ {
				self := i % n
				if x, y := shared[self].next(ra), copies[self].next(rb); x != y {
					t.Fatalf("%s n=%d source %d draw %d: shared list gives %d, a copy %d", kind, n, self, i, x, y)
				}
			}
			if *ra != *rb {
				t.Fatalf("%s n=%d: random streams diverged", kind, n)
			}
		}
	}
}

// TestFlowsArrivalSaturates: at injection 1.0 the arrival probability
// pins to the Q16 maximum instead of dividing by zero.
func TestFlowsArrivalSaturates(t *testing.T) {
	w, _ := LookupWorkload("flows")
	specs, err := w.Build(zooEnv(2, 1.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := specs[0].(*FlowConfig).ArrivalQ16; got != 0xFFFF {
		t.Errorf("ArrivalQ16 at injection 1.0 = %d, want 65535", got)
	}
}
