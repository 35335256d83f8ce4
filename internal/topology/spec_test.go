package topology

import (
	"strings"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"mesh:h=4,w=4",
		"fattree:k=16",
		"dragonfly:a=8,h=4,p=4",
		"paper-six",
	}
	for _, in := range cases {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("ParseSpec(%q).String() = %q", in, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"mesh:",
		"mesh:w",
		"mesh:w=",
		"mesh:w=abc",
		"mesh:w=4,w=5",
		"mesh:=4",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestFromSpecDefaultsAndOverrides(t *testing.T) {
	// Omitted params take the generator defaults.
	topo, err := FromSpec(Spec{Kind: "mesh"})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSwitches() != 16 {
		t.Errorf("default mesh has %d switches, want 16", topo.NumSwitches())
	}
	// Explicit params override them.
	topo, err = FromSpec(Spec{Kind: "mesh", Param: map[string]int{"w": 2, "h": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSwitches() != 6 {
		t.Errorf("2x3 mesh has %d switches", topo.NumSwitches())
	}
}

func TestFromSpecRejectsUnknown(t *testing.T) {
	if _, err := FromSpec(Spec{Kind: "hypercube"}); err == nil {
		t.Error("unknown kind accepted")
	}
	_, err := FromSpec(Spec{Kind: "mesh", Param: map[string]int{"q": 9}})
	if err == nil {
		t.Fatal("unknown param accepted")
	}
	// The error names the valid parameters so the CLI message is usable.
	if !strings.Contains(err.Error(), "w") || !strings.Contains(err.Error(), "h") {
		t.Errorf("error does not list valid params: %v", err)
	}
}

// TestFromSpecVirtualChannels: "vcs" is range-checked and recorded on
// the topology for the generators that declare it, and is an unknown
// parameter everywhere else.
func TestFromSpecVirtualChannels(t *testing.T) {
	for _, text := range []string{
		"torus:vcs=0", "torus:vcs=-1", "torus:vcs=257", // out of [1, MaxVCs]
		"mesh:vcs=2", "dragonfly:vcs=2", // generators whose routers emit no classes
	} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("%s accepted", text)
		}
	}
	for text, want := range map[string]int{"torus": 1, "torus:vcs=2": 2, "torus:minimal=1,vcs=256": 256, "mesh": 1} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if got := topo.NumVC(); got != want {
			t.Errorf("%s: NumVC = %d, want %d", text, got, want)
		}
	}
}

func TestRegistryListsEveryKind(t *testing.T) {
	want := []string{
		"butterfly", "dragonfly", "fattree", "full", "line",
		"mesh", "paper-six", "ring", "star", "torus", "tree",
	}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds() = %v, want %v", got, want)
		}
	}
	for _, g := range List() {
		if g.Summary == "" || g.Build == nil {
			t.Errorf("%s: incomplete generator metadata", g.Kind)
		}
		if _, err := FromSpec(g.Example); err != nil {
			t.Errorf("%s: example spec does not build: %v", g.Kind, err)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	topo, err := FromSpec(Spec{Kind: "fattree", Param: map[string]int{"k": 4}})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 8 edge + 8 agg + 4 core switches, k^3/4 = 16 hosts.
	if topo.NumSwitches() != 20 {
		t.Errorf("switches = %d, want 20", topo.NumSwitches())
	}
	terms := topo.Terminals()
	if len(terms) != 16 {
		t.Fatalf("terminals = %d, want 16", len(terms))
	}
	// Hosts live on edge switches only (ids 0..7), k/2 per switch.
	perSwitch := map[NodeID]int{}
	for _, sw := range terms {
		perSwitch[sw]++
		if int(sw) >= 8 {
			t.Errorf("terminal on non-edge switch %d", sw)
		}
	}
	for sw, n := range perSwitch {
		if n != 2 {
			t.Errorf("switch %d hosts %d terminals, want 2", sw, n)
		}
	}
	if topo.Router() == nil || topo.Router().Name() != "fattree-updown" {
		t.Errorf("fat-tree router annotation missing")
	}
}

func TestDragonflyShape(t *testing.T) {
	topo, err := FromSpec(Spec{Kind: "dragonfly", Param: map[string]int{"p": 2, "a": 4, "h": 2}})
	if err != nil {
		t.Fatal(err)
	}
	// g = a*h+1 = 9 groups of 4 routers; p=2 terminals each.
	if topo.NumSwitches() != 36 {
		t.Errorf("switches = %d, want 36", topo.NumSwitches())
	}
	if got := len(topo.Terminals()); got != 72 {
		t.Errorf("terminals = %d, want 72", got)
	}
	// Fully populated balanced dragonfly: every router has a-1 local +
	// h global links in each direction.
	adj := topo.Adjacency()
	for s, edges := range adj {
		if len(edges) != 5 {
			t.Errorf("router %d degree %d, want 5", s, len(edges))
		}
	}
	// Global connectivity: every group pair is joined by exactly one
	// link in each direction.
	const a, g = 4, 9
	pair := map[[2]int]int{}
	for _, l := range topo.Links() {
		gf, gt := int(l.From)/a, int(l.To)/a
		if gf != gt {
			pair[[2]int{gf, gt}]++
		}
	}
	if len(pair) != g*(g-1) {
		t.Fatalf("global link pairs = %d, want %d", len(pair), g*(g-1))
	}
	for k, n := range pair {
		if n != 1 {
			t.Errorf("groups %v joined by %d links", k, n)
		}
	}
}

func TestButterflyShape(t *testing.T) {
	topo, err := FromSpec(Spec{Kind: "butterfly", Param: map[string]int{"w": 4, "h": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSwitches() != 12 {
		t.Errorf("switches = %d, want 12", topo.NumSwitches())
	}
	// Flattened butterfly: degree (w-1) + (h-1) per router.
	adj := topo.Adjacency()
	for s, edges := range adj {
		if len(edges) != 5 {
			t.Errorf("router %d degree %d, want 5", s, len(edges))
		}
	}
	if topo.Router() == nil || topo.Router().Name() != "flatfly-dor" {
		t.Error("butterfly router annotation missing")
	}
}

func TestTerminalsDefaultToAllSwitches(t *testing.T) {
	topo, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	terms := topo.Terminals()
	if len(terms) != 9 {
		t.Fatalf("terminals = %d, want 9", len(terms))
	}
	for i, sw := range terms {
		if int(sw) != i {
			t.Errorf("terminal %d on switch %d", i, sw)
		}
	}
}
