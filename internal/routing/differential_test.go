package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nocemu/internal/topology"
)

// copyWithGaps copies tb cell by cell into a table built with NewTable,
// leaving out each routed cell with probability 1/gap: the copy's
// columns are in order of first Set, not the builders' sink order, and
// the left-out cells are dead ends.
func copyWithGaps(tp *topology.Topology, tb *Table, rnd *rand.Rand, gap int) (*Table, error) {
	out := NewTable(tp.NumSwitches())
	sinks := tp.Sinks()
	for _, k := range rnd.Perm(len(sinks)) {
		dst := sinks[k].ID
		for sw := topology.NodeID(0); int(sw) < tp.NumSwitches(); sw++ {
			ports, vc, err := tb.Route(sw, dst)
			if err != nil || rnd.Intn(gap) == 0 {
				continue
			}
			if err := out.Set(sw, dst, ports); err != nil {
				return nil, err
			}
			if err := out.SetVC(sw, dst, vc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// TestCompileMatchesReference holds Validate and CheckDeadlockFree to
// the walks they replaced (validateRef, checkDeadlockFreeRef): on every
// registry example — fattree's switches without sources, dragonfly's
// up*/down* memo — and on a torus whose minimal routing has a real
// dependency cycle, on one class and on two dateline classes, under the
// router, shortest-path and up*/down* schemes, as built and after
// seeded random overrides, both return nil alike or the same error
// text. The overrides are Set and SetVC writes (a first candidate sent
// to any port, in range or not, so loops, wrong-endpoint ejections and
// dependency cycles; a class up to one past the topology's) and copies
// with cells left out (dead ends).
func TestCompileMatchesReference(t *testing.T) {
	type scheme struct {
		name  string
		build func(*topology.Topology) (*Table, error)
	}
	schemes := []scheme{
		{"router", BuildTable},
		{"shortest", BuildShortestPath},
		{"updown", func(tp *topology.Topology) (*Table, error) { return BuildFromRouter(tp, &topology.UpDownRouter{}) }},
	}
	specs := []topology.Spec{
		{Kind: "torus", Param: map[string]int{"w": 4, "h": 3, "minimal": 1}},
		{Kind: "torus", Param: map[string]int{"w": 4, "h": 3, "minimal": 1, "vcs": 2}},
	}
	for _, g := range topology.List() {
		specs = append(specs, g.Example)
	}
	trials := 40
	if testing.Short() {
		trials = 8
	}
	// Every verdict each function has must come up somewhere.
	verdicts := []string{"<nil>", "loop routing", "no route", "out of range", "ejection wires", "wrong endpoint", "virtual channel", "channel-dependency cycle"}
	seen := map[string]int{}
	for _, spec := range specs {
		for _, sc := range schemes {
			t.Run(spec.String()+"/"+sc.name, func(t *testing.T) {
				rnd := rand.New(rand.NewSource(int64(len(spec.String()) + 7*len(sc.name))))
				for trial := 0; trial <= trials; trial++ {
					tp, err := topology.FromSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					if len(tp.Sinks()) == 0 {
						sinkPerSwitch(t, tp)
					}
					tb, err := sc.build(tp)
					if err != nil {
						t.Skipf("%s does not route %s: %v", sc.name, spec, err)
					}
					if trial > 0 {
						if tb, err = override(tp, tb, rnd); err != nil {
							t.Fatal(err)
						}
					}
					for _, f := range []struct {
						name      string
						got, want func(*topology.Topology, *Table) error
					}{
						{"Validate", Validate, validateRef},
						{"CheckDeadlockFree", CheckDeadlockFree, checkDeadlockFreeRef},
					} {
						got, want := fmt.Sprint(f.got(tp, tb)), fmt.Sprint(f.want(tp, tb))
						if got != want {
							t.Fatalf("trial %d: %s = %s, reference = %s", trial, f.name, got, want)
						}
						for _, v := range verdicts {
							if strings.Contains(want, v) {
								seen[v]++
							}
						}
					}
				}
			})
		}
	}
	for _, v := range verdicts {
		if seen[v] == 0 {
			t.Errorf("no check ended in %q: %v", v, seen)
		}
	}
}

// override plants a few random defects in tb: one time in four in a
// copy with cells left out, then Set and SetVC writes.
func override(tp *topology.Topology, tb *Table, rnd *rand.Rand) (*Table, error) {
	var err error
	if rnd.Intn(4) == 0 {
		if tb, err = copyWithGaps(tp, tb, rnd, 2+rnd.Intn(60)); err != nil {
			return nil, err
		}
	}
	sinks := tp.Sinks()
	for i, writes := 0, 1+rnd.Intn(4); i < writes; i++ {
		sw := topology.NodeID(rnd.Intn(tp.NumSwitches()))
		dst := sinks[rnd.Intn(len(sinks))].ID
		if rnd.Intn(4) == 0 {
			err = tb.SetVC(sw, dst, uint8(rnd.Intn(tp.NumVC()+1)))
		} else {
			radix := len(tp.SwitchOutputs(sw))
			ports := make([]int, 1+rnd.Intn(3))
			for k := range ports {
				ports[k] = rnd.Intn(radix + 1)
			}
			err = tb.Set(sw, dst, ports)
		}
		if err != nil {
			return nil, err
		}
	}
	return tb, nil
}
