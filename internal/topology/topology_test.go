package topology

import (
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
)

func TestNewValidates(t *testing.T) {
	if _, err := New("t", 0); err == nil {
		t.Error("0 switches accepted")
	}
	tp, err := New("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 3 || tp.Name() != "t" {
		t.Errorf("n=%d name=%q", tp.NumSwitches(), tp.Name())
	}
}

func TestAddLinkErrors(t *testing.T) {
	tp, _ := New("t", 3)
	if err := tp.AddLink(0, 3); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := tp.AddLink(-1, 0); err == nil {
		t.Error("negative source accepted")
	}
	if err := tp.AddLink(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := tp.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(0, 1); err == nil {
		t.Error("duplicate link accepted")
	}
	// Reverse direction is a distinct link.
	if err := tp.AddLink(1, 0); err != nil {
		t.Errorf("reverse link rejected: %v", err)
	}
}

// TestDuplicateErrorsAfterCompilation: the duplicate checks read an
// index, not the lists, and say what the list scans said, word for
// word. Building the port caches drops the link index (construction
// state a compiled topology does not keep); an AddLink after that
// re-derives it, and the port lists then include the new link.
func TestDuplicateErrorsAfterCompilation(t *testing.T) {
	tp, _ := New("t", 3)
	if err := tp.AddBiLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(5, 0); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if err := tp.AddLink(1, 0); err == nil || err.Error() != "topology t: duplicate link 1->0" {
			t.Errorf("%s: duplicate link: %v", when, err)
		}
		if err := tp.AddSink(5, 2); err == nil || err.Error() != "topology t: duplicate endpoint 5" {
			t.Errorf("%s: duplicate endpoint: %v", when, err)
		}
	}
	check("while building")
	if len(tp.SwitchOutputs(1)) != 1 || tp.linkSet != nil {
		t.Fatalf("compiled: outputs %v, link index kept = %v", tp.SwitchOutputs(1), tp.linkSet != nil)
	}
	check("after the port caches")
	if err := tp.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := tp.SwitchOutputs(1); len(got) != 2 || got[1].Link != 2 {
		t.Errorf("outputs after a late AddLink = %v", got)
	}
	check("after a late AddLink")
}

func TestEndpointAttachment(t *testing.T) {
	tp, _ := New("t", 2)
	if err := tp.AddSource(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(1, 1); err == nil {
		t.Error("duplicate endpoint id accepted")
	}
	if err := tp.AddSink(3, 9); err == nil {
		t.Error("endpoint on missing switch accepted")
	}
	e, ok := tp.Endpoint(1)
	if !ok || e.Switch != 0 || e.Role != Source {
		t.Errorf("endpoint lookup: %+v ok=%v", e, ok)
	}
	if _, ok := tp.Endpoint(99); ok {
		t.Error("missing endpoint found")
	}
	if len(tp.Sources()) != 1 || len(tp.Sinks()) != 1 {
		t.Error("role filters wrong")
	}
}

func TestPortOrdering(t *testing.T) {
	tp, _ := New("t", 3)
	// Links into switch 1 from 0 and 2, plus a local source.
	if err := tp.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(8, 1); err != nil {
		t.Fatal(err)
	}
	in := tp.SwitchInputs(1)
	if len(in) != 3 {
		t.Fatalf("inputs = %v", in)
	}
	if in[0].Link != 0 || in[1].Link != 1 {
		t.Errorf("link-fed inputs not first: %v", in)
	}
	if in[2].Link != -1 || in[2].Endpoint != 7 {
		t.Errorf("local source port wrong: %v", in[2])
	}
	out := tp.SwitchOutputs(1)
	if len(out) != 2 {
		t.Fatalf("outputs = %v", out)
	}
	if out[0].Link != 2 {
		t.Errorf("link-driven output not first: %v", out)
	}
	if out[1].Link != -1 || out[1].Endpoint != 8 {
		t.Errorf("local sink port wrong: %v", out[1])
	}
}

func TestRoleString(t *testing.T) {
	if Source.String() != "source" || Sink.String() != "sink" {
		t.Error("role strings wrong")
	}
	if Role(9).String() != "role(9)" {
		t.Errorf("unknown role = %q", Role(9).String())
	}
}

// reachable is the set of switches reach finds from s (s included).
func reachable(t *Topology, s NodeID) map[NodeID]bool {
	seen := make(map[NodeID]bool)
	for _, r := range reach(t.Adjacency(), s, make([]int, t.numSwitches), 1, nil) {
		seen[r] = true
	}
	return seen
}

func TestReachable(t *testing.T) {
	tp, _ := New("t", 4)
	if err := tp.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	// Switch 3 is isolated.
	r := reachable(tp, 0)
	if !r[0] || !r[1] || !r[2] || r[3] {
		t.Errorf("reachable = %v", r)
	}
}

func TestValidateCatchesUnreachableSink(t *testing.T) {
	tp, _ := New("t", 2)
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err == nil {
		t.Error("unreachable sink accepted")
	}
	if err := tp.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

// TestValidateNamesFirstUnreachablePair: reachability is searched once
// per strongly connected component holding a source, yet the error
// names the pair a search per source finds first. Switch 0 feeds the
// cycle 1 <-> 2 and nothing returns to it: the source on 0 reaches
// every sink, the one on 1 fails, and the one on 2 — in the same
// component — is never searched.
func TestValidateNamesFirstUnreachablePair(t *testing.T) {
	tp, _ := New("t", 3)
	for _, l := range [][2]NodeID{{0, 1}, {1, 2}, {2, 1}} {
		if err := tp.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		id   flit.EndpointID
		sw   NodeID
		role Role
	}{{10, 0, Source}, {12, 1, Source}, {11, 2, Source}, {20, 1, Sink}, {21, 0, Sink}, {22, 2, Sink}} {
		if err := tp.addEndpoint(e.id, e.sw, e.role); err != nil {
			t.Fatal(err)
		}
	}
	want := "topology t: sink 21 (switch 0) unreachable from source 12 (switch 1)"
	if err := tp.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %s", err, want)
	}
}

func TestValidateRequiresEndpoints(t *testing.T) {
	tp, _ := New("t", 2)
	if err := tp.Validate(); err == nil {
		t.Error("no-source topology accepted")
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err == nil {
		t.Error("no-sink topology accepted")
	}
}

func TestLine(t *testing.T) {
	tp, err := Line(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Links()) != 6 {
		t.Errorf("links = %d, want 6", len(tp.Links()))
	}
	r := reachable(tp, 0)
	for i := NodeID(0); i < 4; i++ {
		if !r[i] {
			t.Errorf("switch %d unreachable", i)
		}
	}
}

func TestRing(t *testing.T) {
	if _, err := Ring(2); err == nil {
		t.Error("ring of 2 accepted")
	}
	tp, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Links()) != 10 {
		t.Errorf("links = %d, want 10", len(tp.Links()))
	}
	for s := NodeID(0); s < 5; s++ {
		if got := len(tp.SwitchInputs(s)); got != 2 {
			t.Errorf("switch %d inputs = %d", s, got)
		}
	}
}

func TestMeshDegrees(t *testing.T) {
	if _, err := Mesh(0, 2); err == nil {
		t.Error("mesh 0x2 accepted")
	}
	tp, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 2*(w*(h-1) + h*(w-1)) = 2*(6+6) = 24 unidirectional links.
	if len(tp.Links()) != 24 {
		t.Errorf("links = %d, want 24", len(tp.Links()))
	}
	// Corner has 2 outs, edge 3, center 4.
	if got := len(tp.SwitchOutputs(0)); got != 2 {
		t.Errorf("corner outputs = %d", got)
	}
	if got := len(tp.SwitchOutputs(1)); got != 3 {
		t.Errorf("edge outputs = %d", got)
	}
	if got := len(tp.SwitchOutputs(4)); got != 4 {
		t.Errorf("center outputs = %d", got)
	}
	x, y := MeshXY(5, 3)
	if x != 2 || y != 1 {
		t.Errorf("MeshXY(5,3) = %d,%d", x, y)
	}
}

func TestTorusRegularDegree(t *testing.T) {
	if _, err := Torus(2, 3); err == nil {
		t.Error("torus 2x3 accepted")
	}
	tp, err := Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := NodeID(0); s < 9; s++ {
		if got := len(tp.SwitchOutputs(s)); got != 4 {
			t.Errorf("switch %d outputs = %d, want 4", s, got)
		}
	}
}

func TestStar(t *testing.T) {
	if _, err := Star(0); err == nil {
		t.Error("star of 0 accepted")
	}
	tp, err := Star(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.SwitchOutputs(0)); got != 4 {
		t.Errorf("hub outputs = %d", got)
	}
	if got := len(tp.SwitchOutputs(1)); got != 1 {
		t.Errorf("leaf outputs = %d", got)
	}
}

func TestPaperSix(t *testing.T) {
	tp, err := PaperSix()
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 6 {
		t.Errorf("switches = %d", tp.NumSwitches())
	}
	if got := len(tp.Sources()); got != 4 {
		t.Errorf("sources = %d", got)
	}
	if got := len(tp.Sinks()); got != 4 {
		t.Errorf("sinks = %d", got)
	}
	if len(tp.Links()) != 16 {
		t.Errorf("links = %d, want 16", len(tp.Links()))
	}
	// Each source switch must reach each sink switch two ways: via S2
	// and via S3.
	adj := tp.Adjacency()
	for _, s := range []NodeID{0, 1} {
		var mids []NodeID
		for _, e := range adj[s] {
			if e.To == 2 || e.To == 3 {
				mids = append(mids, e.To)
			}
		}
		if len(mids) != 2 {
			t.Errorf("switch %d middle fanout = %v", s, mids)
		}
	}
	hotA, hotB, err := HotLinks(tp)
	if err != nil {
		t.Fatal(err)
	}
	ls := tp.Links()
	if ls[hotA].From != 2 || ls[hotA].To != 4 || ls[hotB].From != 3 || ls[hotB].To != 5 {
		t.Errorf("hot links wrong: %v %v", ls[hotA], ls[hotB])
	}
}

func TestHotLinksWrongTopology(t *testing.T) {
	tp, _ := Line(3)
	if _, _, err := HotLinks(tp); err == nil {
		t.Error("HotLinks on line topology succeeded")
	}
}

// Property: in any mesh, port counts match node degree plus endpoint
// attachments, and every switch reaches every other.
func TestMeshConnectivityProperty(t *testing.T) {
	f := func(wSeed, hSeed uint8) bool {
		w := int(wSeed%4) + 2
		h := int(hSeed%4) + 2
		tp, err := Mesh(w, h)
		if err != nil {
			return false
		}
		r := reachable(tp, 0)
		if len(r) != w*h {
			return false
		}
		// Attach one source and one sink; must validate.
		if err := tp.AddSource(flit.EndpointID(0), 0); err != nil {
			return false
		}
		if err := tp.AddSink(flit.EndpointID(1), NodeID(w*h-1)); err != nil {
			return false
		}
		return tp.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFullyConnected(t *testing.T) {
	if _, err := FullyConnected(1); err == nil {
		t.Error("n=1 accepted")
	}
	tp, err := FullyConnected(4)
	if err != nil {
		t.Fatal(err)
	}
	// n*(n-1) unidirectional links.
	if len(tp.Links()) != 12 {
		t.Errorf("links = %d, want 12", len(tp.Links()))
	}
	for s := NodeID(0); s < 4; s++ {
		if got := len(tp.SwitchOutputs(s)); got != 3 {
			t.Errorf("switch %d degree = %d", s, got)
		}
	}
}

func TestTreeShape(t *testing.T) {
	if _, err := Tree(0, 2); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := Tree(1, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
	tp, err := Tree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 4 = 7 switches; 6 bidirectional links.
	if tp.NumSwitches() != 7 {
		t.Errorf("switches = %d", tp.NumSwitches())
	}
	if len(tp.Links()) != 12 {
		t.Errorf("links = %d, want 12", len(tp.Links()))
	}
	// Root degree = fanout; internal = fanout+1; leaf = 1.
	if got := len(tp.SwitchOutputs(0)); got != 2 {
		t.Errorf("root degree = %d", got)
	}
	if got := len(tp.SwitchOutputs(1)); got != 3 {
		t.Errorf("internal degree = %d", got)
	}
	if got := len(tp.SwitchOutputs(6)); got != 1 {
		t.Errorf("leaf degree = %d", got)
	}
	leaves := TreeLeaves(2, 2)
	if len(leaves) != 4 || leaves[0] != 3 || leaves[3] != 6 {
		t.Errorf("leaves = %v", leaves)
	}
	// Leaves reach the root.
	r := reachable(tp, leaves[0])
	if !r[0] {
		t.Error("root unreachable from leaf")
	}
}

func TestTreeAggregationPlatformValidates(t *testing.T) {
	tp, err := Tree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, leaf := range TreeLeaves(2, 2) {
		if err := tp.AddSource(flit.EndpointID(i), leaf); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddSink(100, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("aggregation tree invalid: %v", err)
	}
}
