package routing

import (
	"strings"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

// sinkPerSwitch attaches one source and one sink per terminal, as
// platform.NetConfig does: the checker walks only states reachable
// from source switches, so sources define where traffic can enter.
func sinkPerSwitch(t testing.TB, tp *topology.Topology) {
	t.Helper()
	n := len(tp.Terminals())
	for i, sw := range tp.Terminals() {
		if err := tp.AddSource(flit.EndpointID(i), sw); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddSink(flit.EndpointID(n+i), sw); err != nil {
			t.Fatal(err)
		}
	}
}

// buildChecked routes the topology with its annotated router and runs
// the CDG checker, returning the checker's verdict.
func buildChecked(t *testing.T, tp *topology.Topology) error {
	t.Helper()
	sinkPerSwitch(t, tp)
	tb, err := BuildTable(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return CheckDeadlockFree(tp, tb)
}

// TestCDGMeshXYAcyclic: the textbook proof — XY dimension-ordered
// routing on a mesh admits no channel-dependency cycle.
func TestCDGMeshXYAcyclic(t *testing.T) {
	tp, err := topology.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildChecked(t, tp); err != nil {
		t.Errorf("mesh XY flagged cyclic: %v", err)
	}
}

// TestCDGFatTreeUpDownAcyclic: up*/down* routing on the fat-tree keeps
// ascending and descending channels disjoint, so the CDG is acyclic
// even with full multipath spreading over the upward ports.
func TestCDGFatTreeUpDownAcyclic(t *testing.T) {
	tp, err := topology.FromSpec(topology.Spec{Kind: "fattree", Param: map[string]int{"k": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := buildChecked(t, tp); err != nil {
		t.Errorf("fat-tree up/down flagged cyclic: %v", err)
	}
}

// TestCDGDragonflyUpDownAcyclic: the dragonfly defaults to generic
// up*/down* over a BFS ranking precisely because minimal routing
// deadlocks without VCs; the default must pass the checker.
func TestCDGDragonflyUpDownAcyclic(t *testing.T) {
	tp, err := topology.FromSpec(topology.Spec{Kind: "dragonfly", Param: map[string]int{"p": 2, "a": 4, "h": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := buildChecked(t, tp); err != nil {
		t.Errorf("dragonfly up/down flagged cyclic: %v", err)
	}
}

// TestCDGMinimalTorusRejected: wrap-using minimal torus routing
// without dateline VCs is the canonical wormhole deadlock; the checker
// must reject it and name the cycle's links.
func TestCDGMinimalTorusRejected(t *testing.T) {
	tp, err := topology.FromSpec(topology.Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4, "minimal": 1}})
	if err != nil {
		t.Fatal(err)
	}
	err = buildChecked(t, tp)
	if err == nil {
		t.Fatal("minimal torus routing passed the CDG check")
	}
	if !strings.Contains(err.Error(), "channel-dependency cycle") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestCDGMinimalTorusDatelineAccepted: the same routing on two virtual
// channels carries dateline classes, the checker's channels are (link,
// vc) pairs, and each ring's cycle is cut. Odd and mixed ring sizes
// exercise the tie and the both-directions cases. The classes are what
// does it: with every class zeroed the table is the rejected one again,
// and a class the topology has no channel for fails validation.
func TestCDGMinimalTorusDatelineAccepted(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {5, 3}, {3, 6}} {
		spec := topology.Spec{Kind: "torus", Param: map[string]int{"w": dims[0], "h": dims[1], "minimal": 1, "vcs": 2}}
		tp, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := buildChecked(t, tp); err != nil {
			t.Errorf("%s flagged cyclic: %v", spec, err)
		}
	}

	tp, err := topology.FromSpec(topology.Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4, "minimal": 1, "vcs": 2}})
	if err != nil {
		t.Fatal(err)
	}
	sinkPerSwitch(t, tp)
	tb, err := BuildTable(tp)
	if err != nil {
		t.Fatal(err)
	}
	classed := 0
	for sw := topology.NodeID(0); int(sw) < tp.NumSwitches(); sw++ {
		for _, dst := range tb.Destinations(sw) {
			if tb.VC(sw, dst) != 0 {
				classed++
				if err := tb.SetVC(sw, dst, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if classed == 0 {
		t.Fatal("dateline table carries no class-1 hop")
	}
	if err := CheckDeadlockFree(tp, tb); err == nil {
		t.Error("table with the dateline classes zeroed passed the CDG check")
	}
	if err := tb.SetVC(0, tb.Destinations(0)[0], 2); err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err == nil {
		t.Error("class 2 on a two-channel topology passed validation")
	}
}

// TestCDGDefaultTorusAcyclic: the torus default stays wrap-ignoring XY
// (the wraps carry no routed traffic), which keeps existing torus
// scenarios deadlock-free and byte-identical.
func TestCDGDefaultTorusAcyclic(t *testing.T) {
	tp, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildChecked(t, tp); err != nil {
		t.Errorf("default torus XY flagged cyclic: %v", err)
	}
}

// TestCDGCycleTextPinned pins the cycle each rejection names. The
// search follows every channel's dependencies in the order the walk
// first met them, so the same cycle is named however the dependencies
// are stored and deduplicated; visiting each channel's list in reverse
// names another cycle in every case here.
func TestCDGCycleTextPinned(t *testing.T) {
	const prefix = "routing: channel-dependency cycle (wormhole deadlock possible): "
	for _, c := range []struct {
		spec     string
		shortest bool // all-minimal-paths routing instead of the generator's router
		want     string
	}{
		{"torus:w=4,h=4,minimal=1", false, "link 0 (s0->s1) vc0 -> link 4 (s1->s2) vc0 -> link 8 (s2->s3) vc0 -> link 48 (s3->s0) vc0 -> link 0 vc0"},
		{"torus:w=4,h=4", true, "link 0 (s0->s1) vc0 -> link 4 (s1->s2) vc0 -> link 8 (s2->s3) vc0 -> link 48 (s3->s0) vc0 -> link 0 vc0"},
		{"mesh:w=4,h=4", true, "link 1 (s1->s0) vc0 -> link 2 (s0->s4) vc0 -> link 14 (s4->s5) vc0 -> link 7 (s5->s1) vc0 -> link 1 vc0"},
		{"dragonfly:p=2,a=4,h=2", true, "link 0 (s0->s1) vc0 -> link 112 (s1->s14) vc0 -> link 46 (s14->s15) vc0 -> link 127 (s15->s4) vc0 -> link 16 (s4->s7) vc0 -> link 109 (s7->s0) vc0 -> link 0 vc0"},
		{"butterfly:w=3,h=3", true, "link 0 (s0->s1) vc0 -> link 24 (s1->s4) vc0 -> link 7 (s4->s3) vc0 -> link 19 (s3->s0) vc0 -> link 0 vc0"},
	} {
		spec, err := topology.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		sinkPerSwitch(t, tp)
		build := BuildTable
		if c.shortest {
			build = BuildShortestPath
		}
		tb, err := build(tp)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckDeadlockFree(tp, tb); err == nil || err.Error() != prefix+c.want {
			t.Errorf("%s (shortest=%v):\n got %v\nwant %s", c.spec, c.shortest, err, prefix+c.want)
		}
	}
}

// TestCDGCatchesRingCycle: unidirectional-ring shortest-path routing
// is the smallest cyclic CDG; the checker must find it.
func TestCDGCatchesRingCycle(t *testing.T) {
	tp, err := topology.New("uniring", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tp.AddLink(topology.NodeID(i), topology.NodeID((i+1)%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := buildChecked(t, tp); err == nil {
		t.Fatal("unidirectional ring passed the CDG check")
	}
}
