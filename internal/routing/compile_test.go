package routing

import (
	"testing"

	"nocemu/internal/topology"
)

// compileSpecs are the platforms BenchmarkRouteCompile times: the
// 1 024-node mesh of the benchmark's largest workload (XY), a 256-node
// flattened butterfly (radix 31, one hop per dimension) and a k=16
// fat-tree (up*/down* multipath, switches without sources).
var compileSpecs = []topology.Spec{
	{Kind: "mesh", Param: map[string]int{"w": 32, "h": 32}},
	{Kind: "butterfly", Param: map[string]int{"w": 16, "h": 16}},
	{Kind: "fattree", Param: map[string]int{"k": 16}},
}

// compileTopo builds spec with a source and a sink per terminal, as
// platform.NetConfig attaches them.
func compileTopo(tb testing.TB, spec topology.Spec) *topology.Topology {
	tb.Helper()
	tp, err := topology.FromSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	sinkPerSwitch(tb, tp)
	return tp
}

// compile runs what platform.RouteTable runs on a table without
// overrides: the build, Validate and CheckDeadlockFree.
func compile(tp *topology.Topology) error {
	tb, err := BuildTable(tp)
	if err != nil {
		return err
	}
	if err := Validate(tp, tb); err != nil {
		return err
	}
	return CheckDeadlockFree(tp, tb)
}

// TestRouteCompileAllocs: compiling a 32×32 XY mesh's routes — table,
// check and deadlock proof — allocates per switch or per sink at most,
// never per (switch, sink) cell: under 1 000 objects for its 1 048 576
// cells.
func TestRouteCompileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node compile in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tp := compileTopo(t, compileSpecs[0])
	var err error
	allocs := testing.AllocsPerRun(1, func() { err = compile(tp) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 1000 {
		t.Errorf("compiling a 32×32 mesh's routes allocated %.0f objects, want under 1 000", allocs)
	}
}

// BenchmarkRouteCompile times the three passes of a route compile, each
// on its own: the table build (build), the first-candidate walk
// (validate) and the channel-dependency proof (cdg).
func BenchmarkRouteCompile(b *testing.B) {
	for _, spec := range compileSpecs {
		tp := compileTopo(b, spec)
		tbl, err := BuildTable(tp)
		if err != nil {
			b.Fatal(err)
		}
		for _, phase := range []struct {
			name string
			run  func() error
		}{
			{"build", func() error { _, err := BuildTable(tp); return err }},
			{"validate", func() error { return Validate(tp, tbl) }},
			{"cdg", func() error { return CheckDeadlockFree(tp, tbl) }},
		} {
			b.Run(spec.String()+"/"+phase.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := phase.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
