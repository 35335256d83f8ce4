package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

func TestValidPolicy(t *testing.T) {
	for _, p := range []Policy{First, PacketModulo, Random, Adaptive} {
		if !ValidPolicy(p) {
			t.Errorf("%s rejected", p)
		}
	}
	if ValidPolicy(Policy("bogus")) {
		t.Error("bogus policy accepted")
	}
}

func TestTableSetLookup(t *testing.T) {
	tb := NewTable(2)
	if tb.n != 2 {
		t.Errorf("switches = %d", tb.n)
	}
	if err := tb.Set(5, 1, []int{0}); err == nil {
		t.Error("out-of-range switch accepted")
	}
	if err := tb.Set(0, 1, nil); err == nil {
		t.Error("empty port list accepted")
	}
	if err := tb.Set(0, 1, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	ports, err := tb.Lookup(0, 1)
	if err != nil || len(ports) != 2 || ports[0] != 2 {
		t.Errorf("lookup = %v, %v", ports, err)
	}
	if _, err := tb.Lookup(0, 99); err == nil {
		t.Error("missing route lookup succeeded")
	}
	if _, err := tb.Lookup(9, 1); err == nil {
		t.Error("out-of-range lookup succeeded")
	}
	// Set copies its input.
	src := []int{7}
	if err := tb.Set(1, 2, src); err != nil {
		t.Fatal(err)
	}
	src[0] = 8
	ports, _ = tb.Lookup(1, 2)
	if ports[0] != 7 {
		t.Error("Set aliased caller slice")
	}
	if ds := tb.Destinations(1); len(ds) != 1 || ds[0] != 2 {
		t.Errorf("destinations = %v", ds)
	}
}

func lineWithEndpoints(t *testing.T, n int) *topology.Topology {
	t.Helper()
	tp, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, topology.NodeID(n-1)); err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestBuildShortestPathLine(t *testing.T) {
	tp := lineWithEndpoints(t, 4)
	tb, err := BuildShortestPath(tp)
	if err != nil {
		t.Fatal(err)
	}
	// Every switch routes toward switch 3; switch 3 ejects locally.
	links := tp.Links()
	for sw := topology.NodeID(0); sw < 3; sw++ {
		ports, err := tb.Lookup(sw, 100)
		if err != nil {
			t.Fatalf("switch %d: %v", sw, err)
		}
		if len(ports) != 1 {
			t.Fatalf("switch %d candidates = %v", sw, ports)
		}
		oc := tp.SwitchOutputs(sw)[ports[0]]
		if oc.Link < 0 || links[oc.Link].To != sw+1 {
			t.Errorf("switch %d routes to %+v", sw, oc)
		}
	}
	ports, err := tb.Lookup(3, 100)
	if err != nil || len(ports) != 1 {
		t.Fatalf("sink switch route: %v %v", ports, err)
	}
	if oc := tp.SwitchOutputs(3)[ports[0]]; oc.Link != -1 || oc.Endpoint != 100 {
		t.Errorf("sink switch ejects to %+v", oc)
	}
	if err := Validate(tp, tb); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBuildShortestPathMultipath(t *testing.T) {
	tp, err := topology.PaperSix()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildShortestPath(tp)
	if err != nil {
		t.Fatal(err)
	}
	// From S0, sink 100 (on S4) is reachable via S2 and S3: two
	// candidates — the paper's "two routing possibilities".
	ports, err := tb.Lookup(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 {
		t.Errorf("candidates from S0 = %v, want 2 ports", ports)
	}
	if err := Validate(tp, tb); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBuildShortestPathUnreachableSinkSkipped(t *testing.T) {
	tp, err := topology.New("t", 3)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 1; switch 2 isolated with its own sink.
	if err := tp.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(101, 2); err != nil {
		t.Fatal(err)
	}
	tb, err := BuildShortestPath(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Lookup(0, 101); err == nil {
		t.Error("route to unreachable sink exists")
	}
	if _, err := tb.Lookup(0, 100); err != nil {
		t.Errorf("route to reachable sink missing: %v", err)
	}
}

func TestBuildXYMesh(t *testing.T) {
	tp, err := topology.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 8); err != nil { // corner (2,2)
		t.Fatal(err)
	}
	// The mesh generator annotates its XY router; BuildTable picks it up.
	tb, err := BuildTable(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// From (0,0), XY goes east first: next hop must be switch 1.
	ports, err := tb.Lookup(0, 100)
	if err != nil || len(ports) != 1 {
		t.Fatalf("lookup: %v %v", ports, err)
	}
	oc := tp.SwitchOutputs(0)[ports[0]]
	if tp.Links()[oc.Link].To != 1 {
		t.Errorf("first hop = %d, want 1", tp.Links()[oc.Link].To)
	}
	// From (2,0) x matches: go south to (2,1) = switch 5.
	ports, err = tb.Lookup(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	oc = tp.SwitchOutputs(2)[ports[0]]
	if tp.Links()[oc.Link].To != 5 {
		t.Errorf("hop from (2,0) = %d, want 5", tp.Links()[oc.Link].To)
	}
}

func TestBuildFromRouterErrors(t *testing.T) {
	// An XY router with the wrong width asks for hops that do not exist
	// on this mesh; BuildFromRouter must report the missing link.
	tp, err := topology.Mesh(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromRouter(tp, topology.XYRouter{W: 4}); err == nil {
		t.Error("mismatched width accepted")
	}
}

func TestBuildTableWithoutRouterFallsBack(t *testing.T) {
	// A bare graph with no Router annotation routes shortest-path.
	tp, err := topology.New("plain", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddBiLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 1); err != nil {
		t.Fatal(err)
	}
	tb, err := BuildTable(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestValidateCatchesLoop(t *testing.T) {
	tp, err := topology.New("loop", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddBiLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 1); err != nil {
		t.Fatal(err)
	}
	tb := NewTable(2)
	// 0 -> 1 -> 0 -> ... never ejects.
	if err := tb.Set(0, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(1, 100, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err == nil {
		t.Error("routing loop accepted")
	}
}

func TestValidateCatchesWrongEject(t *testing.T) {
	tp, err := topology.New("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(100, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSink(101, 0); err != nil {
		t.Fatal(err)
	}
	tb := NewTable(1)
	outs := tp.SwitchOutputs(0)
	// Route everything to sink 100's port, including traffic for 101.
	var port100 int
	for p, oc := range outs {
		if oc.Endpoint == 100 {
			port100 = p
		}
	}
	if err := tb.Set(0, 100, []int{port100}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(0, 101, []int{port100}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(tp, tb); err == nil {
		t.Error("wrong ejection accepted")
	}
}

// Property: shortest-path tables on random meshes validate and route
// every pair within mesh-diameter hops.
func TestShortestPathMeshProperty(t *testing.T) {
	f := func(wSeed, hSeed, srcSeed, dstSeed uint8) bool {
		w := int(wSeed%3) + 2
		h := int(hSeed%3) + 2
		tp, err := topology.Mesh(w, h)
		if err != nil {
			return false
		}
		srcSw := topology.NodeID(int(srcSeed) % (w * h))
		dstSw := topology.NodeID(int(dstSeed) % (w * h))
		if err := tp.AddSource(flit.EndpointID(0), srcSw); err != nil {
			return false
		}
		if err := tp.AddSink(flit.EndpointID(100), dstSw); err != nil {
			return false
		}
		tb, err := BuildShortestPath(tp)
		if err != nil {
			return false
		}
		return Validate(tp, tb) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shortest-path routing validates on every topology family
// with endpoints at extreme positions.
func TestShortestPathAllShapesProperty(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() (*topology.Topology, error)
		last func(tp *topology.Topology) topology.NodeID
	}{
		{"line", func() (*topology.Topology, error) { return topology.Line(5) },
			func(tp *topology.Topology) topology.NodeID { return 4 }},
		{"ring", func() (*topology.Topology, error) { return topology.Ring(6) },
			func(tp *topology.Topology) topology.NodeID { return 3 }},
		{"mesh", func() (*topology.Topology, error) { return topology.Mesh(3, 4) },
			func(tp *topology.Topology) topology.NodeID { return 11 }},
		{"torus", func() (*topology.Topology, error) { return topology.Torus(3, 3) },
			func(tp *topology.Topology) topology.NodeID { return 8 }},
		{"star", func() (*topology.Topology, error) { return topology.Star(5) },
			func(tp *topology.Topology) topology.NodeID { return 5 }},
		{"tree", func() (*topology.Topology, error) { return topology.Tree(2, 3) },
			func(tp *topology.Topology) topology.NodeID { return topology.NodeID(tp.NumSwitches() - 1) }},
		{"full", func() (*topology.Topology, error) { return topology.FullyConnected(5) },
			func(tp *topology.Topology) topology.NodeID { return 4 }},
	}
	for _, shape := range shapes {
		tp, err := shape.mk()
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if err := tp.AddSource(0, 0); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if err := tp.AddSink(100, shape.last(tp)); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		// A second sink next to the source exercises short routes.
		if err := tp.AddSink(101, 0); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		tb, err := BuildShortestPath(tp)
		if err != nil {
			t.Errorf("%s: build: %v", shape.name, err)
			continue
		}
		if err := Validate(tp, tb); err != nil {
			t.Errorf("%s: validate: %v", shape.name, err)
		}
		// Torus wrap-around: distance from 0 to 8 in a 3x3 torus is 2
		// via wrap links, so switch 0 must have >= 2 candidates.
		if shape.name == "torus" {
			ports, err := tb.Lookup(0, 100)
			if err != nil || len(ports) < 2 {
				t.Errorf("torus multipath candidates = %v, %v", ports, err)
			}
		}
	}
}

// TestTableSparseIDs: rows are as wide as the destination count, not
// the largest id — the paper platform numbers its sinks from 100 — and
// ids the table never saw miss like any other.
func TestTableSparseIDs(t *testing.T) {
	tb := NewTable(3)
	for sw := topology.NodeID(0); sw < 3; sw++ {
		for i := 0; i < 4; i++ {
			if err := tb.Set(sw, flit.EndpointID(100+i), []int{int(sw), i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if w := len(tb.ids); w != 4 || tb.stride != 1 {
		t.Errorf("rows are %d columns on %d pages for 4 destinations, want 4 on one", w, tb.stride)
	}
	for sw := topology.NodeID(0); sw < 3; sw++ {
		for i := 0; i < 4; i++ {
			ports, err := tb.Lookup(sw, flit.EndpointID(100+i))
			if err != nil || !slices.Equal(ports, []int{int(sw), i}) {
				t.Errorf("lookup(%d, %d) = %v, %v", sw, 100+i, ports, err)
			}
		}
	}
	// Destinations come back in ascending id order whatever order they
	// were set in.
	if err := tb.Set(1, 7, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got, want := tb.Destinations(1), []flit.EndpointID{7, 100, 101, 102, 103}; !slices.Equal(got, want) {
		t.Errorf("destinations = %v, want %v", got, want)
	}
	// Switch 0 never set id 7: its row stops short of that column.
	for _, dst := range []flit.EndpointID{7, 99, 104, 60000} {
		_, err := tb.Lookup(0, dst)
		if want := fmt.Sprintf("routing: no route at switch 0 to endpoint %d", dst); err == nil || err.Error() != want {
			t.Errorf("lookup(0, %d) error = %v, want %q", dst, err, want)
		}
		if vc := tb.VC(0, dst); vc != 0 {
			t.Errorf("VC(0, %d) = %d, want the default 0", dst, vc)
		}
	}
}

// TestTableSetReplaces: Set over an existing entry (a route override)
// takes a shorter and a longer list, and leaves the neighbouring
// entries' candidates alone either way — also when a caller appends to
// a Lookup result, and also in a row of identical one-port entries,
// which share one pool cell.
func TestTableSetReplaces(t *testing.T) {
	tb := NewTable(1)
	want := map[flit.EndpointID][]int{100: {1, 2, 3}, 101: {4, 5}, 102: {6}, 103: {6}, 104: {6}, 105: {6}}
	check := func(when string) {
		t.Helper()
		for dst, ports := range want {
			if got, err := tb.Lookup(0, dst); err != nil || !slices.Equal(got, ports) {
				t.Errorf("%s: lookup(0, %d) = %v, %v, want %v", when, dst, got, err, ports)
			}
		}
	}
	set := func(dst flit.EndpointID, ports ...int) {
		t.Helper()
		if err := tb.Set(0, dst, ports); err != nil {
			t.Fatal(err)
		}
		want[dst] = ports
	}
	for _, dst := range []flit.EndpointID{100, 101, 102, 103, 104, 105} {
		set(dst, want[dst]...)
	}
	check("filled")
	if n := len(tb.pool); n != 3+2+1 {
		t.Errorf("pool holds %d cells, want 6: the four one-port lists naming port 6 share one", n)
	}
	set(103, 7) // one of the row of equal one-port entries
	check("one-port list over a shared one")
	set(104, 7, 8)
	check("two-port list over a shared one")
	set(104, 6) // and back onto the shared cell
	check("shared one-port list over a two-port one")
	set(100, 9) // shorter
	check("shorter list")
	set(101, 7, 8, 9, 10) // longer
	check("longer list")
	set(100, 11, 12, 13) // back to the original length
	check("regrown list")
	for _, dst := range []flit.EndpointID{100, 102} { // a multi-port run, the shared cell
		ports, _ := tb.Lookup(0, dst)
		_ = append(ports, 99)
	}
	check("append to a lookup result")
	// A cell rewritten over and over grows nothing: both lists are in the
	// dictionary, and the pool, after the second Set.
	var pool, dict int
	for i := 0; i < 10_000; i++ {
		if i%2 == 0 {
			set(101, 20, 21, 22)
		} else {
			set(101, 30, 31)
		}
		if i == 1 {
			pool, dict = len(tb.pool), len(tb.dict)
		}
	}
	check("10 000 alternating rewrites")
	if len(tb.pool) != pool || len(tb.dict) != dict {
		t.Errorf("after 10 000 alternating Sets: pool %d cells, dictionary %d entries; after the second %d and %d", len(tb.pool), len(tb.dict), pool, dict)
	}
}

// TestTableDictionary: cells share dictionary entries, and nothing a
// caller does to one cell shows through the entry to its neighbours.
func TestTableDictionary(t *testing.T) {
	tp, tb := lineAllEndpoints(t, 4)
	// On a line every cell is one of: west, east, or the local port.
	if n := len(tb.dict); n > 1+3 {
		t.Errorf("a shortest-path line table has %d dictionary entries, want the empty one and at most three", n)
	}
	type cell struct {
		ports []int
		vc    uint8
	}
	read := func() map[[2]int]cell {
		out := map[[2]int]cell{}
		for sw := 0; sw < 4; sw++ {
			for _, dst := range tb.Destinations(topology.NodeID(sw)) {
				ports, err := tb.Lookup(topology.NodeID(sw), dst)
				if err != nil {
					t.Fatal(err)
				}
				out[[2]int{sw, int(dst)}] = cell{slices.Clone(ports), tb.VC(topology.NodeID(sw), dst)}
			}
		}
		return out
	}
	want := read()
	if len(want) != 16 {
		t.Fatalf("%d routed cells on a 4-switch line with 4 sinks", len(want))
	}
	// Switch 1 and switch 2 reach sink 103 through the same entry.
	if tb.cell(1, 103) != tb.cell(2, 103) {
		t.Fatal("two cells with the same port and class do not share a dictionary entry")
	}
	if err := tb.SetVC(1, 103, 1); err != nil {
		t.Fatal(err)
	}
	want[[2]int{1, 103}] = cell{want[[2]int{1, 103}].ports, 1}
	if got := read(); !reflect.DeepEqual(got, want) {
		t.Errorf("after SetVC on one cell the table reads %v, want %v", got, want)
	}
	if err := tb.Set(1, 103, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	want[[2]int{1, 103}] = cell{[]int{0, 1}, 1}
	if got := read(); !reflect.DeepEqual(got, want) {
		t.Errorf("after Set on one cell the table reads %v, want %v", got, want)
	}
	// Validate reports through the dictionary as it did through the cells.
	if err := Validate(tp, tb); err == nil || err.Error() != "routing: switch 1 routes to endpoint 103 on virtual channel 1 of 1" {
		t.Errorf("Validate = %v, want the class of (1, 103) out of range", err)
	}

	// The dictionary holds 65 535 entries besides the empty one: 256
	// one-port lists on 256 classes, less one. That one is an error, not
	// cell 0 again, and leaves its cell alone.
	full := NewTable(1)
	for port := 0; port < 256; port++ {
		dst := flit.EndpointID(port)
		if err := full.Set(0, dst, []int{port}); err != nil {
			t.Fatal(err)
		}
		for vc := 1; vc < 256 && port+vc < 510; vc++ {
			if err := full.SetVC(0, dst, uint8(vc)); err != nil {
				t.Fatalf("entry %d: %v", len(full.dict), err)
			}
		}
	}
	if len(full.dict) != 1<<16 {
		t.Fatalf("%d dictionary entries, want %d", len(full.dict), 1<<16)
	}
	err := full.SetVC(0, 255, 255)
	if want := "routing: switch 0 dst 255 needs a 65537th distinct table entry"; err == nil || err.Error() != want {
		t.Errorf("a 65 537th entry: error %v, want %q", err, want)
	}
	if err, n := full.Set(0, 255, []int{1, 2}), len(full.pool); err == nil || n != 256 {
		t.Errorf("Set of a new list into a full dictionary: error %v, pool of %d cells, want an error and the 256 there were", err, n)
	}
	if ports, _ := full.Lookup(0, 255); !slices.Equal(ports, []int{255}) || full.VC(0, 255) != 254 {
		t.Errorf("the refused writes changed the cell: ports %v class %d", ports, full.VC(0, 255))
	}
	if err := full.SetVC(0, 255, 7); err != nil { // an entry the dictionary holds
		t.Errorf("re-pointing at an existing entry in a full dictionary: %v", err)
	}

	// Pages are shared the same way: three equal rows name one page, a
	// write to one row moves it to another page and leaves the others
	// alone, a cell rewritten back and forth grows no page, and writing
	// the old content back shares the old page again.
	shared := NewTable(3)
	for sw := topology.NodeID(0); sw < 3; sw++ {
		for dst := flit.EndpointID(0); dst < 4; dst++ {
			if err := shared.Set(sw, dst, []int{int(dst)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shared.rows[0] != shared.rows[1] || shared.rows[1] != shared.rows[2] {
		t.Fatalf("three equal rows name pages %v, want one", shared.rows)
	}
	var pages, cells int
	for i := 0; i < 10_000; i++ {
		ports := []int{7, 8}
		if i%2 == 1 {
			ports = []int{9}
		}
		if err := shared.Set(1, 2, ports); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			pages, cells = len(shared.pages), len(shared.cells)
		}
	}
	if len(shared.pages) != pages || len(shared.cells) != cells {
		t.Errorf("after 10 000 alternating Sets: %d pages of %d cells; after the second %d and %d", len(shared.pages), len(shared.cells), pages, cells)
	}
	for _, sw := range []topology.NodeID{0, 2} {
		if ports, _ := shared.Lookup(sw, 2); !slices.Equal(ports, []int{2}) {
			t.Errorf("switch %d reads %v for endpoint 2 after switch 1's rewrites, want [2]", sw, ports)
		}
	}
	if err := shared.Set(1, 2, []int{2}); err != nil {
		t.Fatal(err)
	}
	if shared.rows[1] != shared.rows[0] {
		t.Errorf("row 1 written back names page %d, row 0 page %d; want the shared page again", shared.rows[1], shared.rows[0])
	}
}

// TestPagedTableMatchesFlat: the paged table answers every cell as the
// flat layout it replaced does — ports and class, routed or not — for
// every registry topology under each routing scheme, before and after
// overrides written with Set and SetVC, and at the 1 024-node mesh and
// 256-node butterfly as well as the catalog's small examples.
func TestPagedTableMatchesFlat(t *testing.T) {
	type scheme struct {
		name  string
		build func(*topology.Topology) (*Table, error)
		flat  func(*topology.Topology) *flatTable
	}
	schemes := []scheme{
		{"shortest", BuildShortestPath, flatShortestPath},
		{"router", BuildTable, func(tp *topology.Topology) *flatTable {
			if r := tp.Router(); r != nil {
				return flatFromRouter(tp, r)
			}
			return flatShortestPath(tp)
		}},
		{"updown", func(tp *topology.Topology) (*Table, error) { return BuildFromRouter(tp, &topology.UpDownRouter{}) },
			func(tp *topology.Topology) *flatTable { return flatFromRouter(tp, &topology.UpDownRouter{}) }},
	}
	var specs []topology.Spec
	for _, g := range topology.List() {
		specs = append(specs, g.Example)
	}
	if !testing.Short() {
		specs = append(specs,
			topology.Spec{Kind: "mesh", Param: map[string]int{"w": 32, "h": 32}},
			topology.Spec{Kind: "butterfly", Param: map[string]int{"w": 16, "h": 16}})
	}
	for _, spec := range specs {
		for _, sc := range schemes {
			t.Run(spec.String()+"/"+sc.name, func(t *testing.T) {
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
				ref := sc.flat(tp)
				compare := func(when string) {
					t.Helper()
					for sw := topology.NodeID(0); int(sw) < tp.NumSwitches(); sw++ {
						for _, sink := range tp.Sinks() {
							ports, vc, err := tb.Route(sw, sink.ID)
							want, wantVC, ok := ref.route(sw, sink.ID)
							if (err == nil) != ok || !slices.Equal(ports, want) || vc != wantVC {
								t.Fatalf("%s: Route(%d, %d) = %v class %d (%v), flat reference %v class %d (routed %v)",
									when, sw, sink.ID, ports, vc, err, want, wantVC, ok)
							}
						}
					}
				}
				compare("built")
				rnd := rand.New(rand.NewSource(int64(len(spec.String()))))
				sinks := tp.Sinks()
				for i := 0; i < 500; i++ {
					sw := topology.NodeID(rnd.Intn(tp.NumSwitches()))
					dst := sinks[rnd.Intn(len(sinks))].ID
					if i%3 == 2 {
						vc := uint8(rnd.Intn(4))
						if err := tb.SetVC(sw, dst, vc); err != nil {
							t.Fatal(err)
						}
						ref.setVC(sw, dst, vc)
						continue
					}
					ports := make([]int, 1+rnd.Intn(3))
					for k := range ports {
						ports[k] = rnd.Intn(8)
					}
					if err := tb.Set(sw, dst, ports); err != nil {
						t.Fatal(err)
					}
					ref.set(sw, dst, ports)
				}
				compare("after 500 overrides")
			})
		}
	}
}

// TestTableFootprint: a 32×32 XY mesh's table is its page ids and
// pages, at most 128 KiB where the flat table was 2 MiB, and a table
// narrower than a page is paged at its own width.
func TestTableFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node table in -short mode")
	}
	tp, err := topology.Mesh(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	sinkPerSwitch(t, tp)
	tb, err := BuildTable(tp)
	if err != nil {
		t.Fatal(err)
	}
	if got, flat := tb.footprint(), 2*1024*1024; got > 128<<10 {
		t.Errorf("32×32 mesh table takes %d bytes of pages and page ids, want at most %d (flat: %d)", got, 128<<10, flat)
	}
	small, err := topology.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sinkPerSwitch(t, small)
	if tb, err = BuildTable(small); err != nil {
		t.Fatal(err)
	}
	if page := 1 << tb.shift; page != 16 {
		t.Errorf("a 4×4 mesh's 16-column rows are paged %d cells to a page, want 16", page)
	}
}

// TestTableErrorTexts pins the messages callers and golden outputs see.
func TestTableErrorTexts(t *testing.T) {
	tb := NewTable(2)
	for what, got := range map[string]error{
		"routing: switch 2 out of range":                  tb.Set(2, 1, []int{0}),
		"routing: switch -1 out of range":                 tb.SetVC(-1, 1, 1),
		"routing: empty port list for switch 0 dst 1":     tb.Set(0, 1, nil),
		"routing: no route at switch 1 to endpoint 1":     func() error { _, err := tb.Lookup(1, 1); return err }(),
		"routing: switch 5 out of range":                  func() error { _, err := tb.Lookup(5, 1); return err }(),
		"routing: no route at switch 0 to endpoint 65535": func() error { _, err := tb.Lookup(0, 65535); return err }(),
	} {
		if got == nil || got.Error() != what {
			t.Errorf("error = %v, want %q", got, what)
		}
	}
	// A class set before any route is kept, and is not a route.
	if err := tb.SetVC(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Lookup(0, 3); err == nil {
		t.Error("a class without ports is a route")
	}
	if err := tb.Set(0, 3, []int{2}); err != nil {
		t.Fatal(err)
	}
	if vc := tb.VC(0, 3); vc != 1 {
		t.Errorf("VC after Set = %d, want 1", vc)
	}
	// Route is Lookup and VC from one read of the cell, errors included.
	if ports, vc, err := tb.Route(0, 3); err != nil || !slices.Equal(ports, []int{2}) || vc != 1 {
		t.Errorf("Route(0, 3) = %v, %d, %v; want [2], 1", ports, vc, err)
	}
	for _, q := range []struct {
		sw  topology.NodeID
		dst flit.EndpointID
	}{{1, 1}, {5, 1}, {0, 65535}} {
		_, lerr := tb.Lookup(q.sw, q.dst)
		if _, _, err := tb.Route(q.sw, q.dst); err == nil || err.Error() != lerr.Error() {
			t.Errorf("Route(%d, %d) = %v, want Lookup's %v", q.sw, q.dst, err, lerr)
		}
	}
}

// lineAllEndpoints is a bidirectional line of n switches with source i
// and sink 100+i on switch i, routed shortest-path.
func lineAllEndpoints(t *testing.T, n int) (*topology.Topology, *Table) {
	t.Helper()
	tp, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tp.AddSource(flit.EndpointID(i), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddSink(flit.EndpointID(100+i), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := BuildShortestPath(tp)
	if err != nil {
		t.Fatal(err)
	}
	return tp, tb
}

// portTo returns the output port of sw that leads to switch next, or to
// sink endpoint eject when next is negative.
func portTo(t *testing.T, tp *topology.Topology, sw topology.NodeID, next int, eject flit.EndpointID) int {
	t.Helper()
	for p, oc := range tp.SwitchOutputs(sw) {
		if next < 0 && oc.Link == -1 && oc.Endpoint == eject {
			return p
		}
		if next >= 0 && oc.Link >= 0 && tp.Links()[oc.Link].To == topology.NodeID(next) {
			return p
		}
	}
	t.Fatalf("switch %d has no such port", sw)
	return 0
}

// TestValidateFirstFailureBehindEarlierWalks: Validate stops a walk at a
// switch an earlier walk already took to the sink, so the defects here
// sit where the first source's walks never go. The pair reported, and
// its message, are those of walking every pair in full.
func TestValidateFirstFailureBehindEarlierWalks(t *testing.T) {
	// Sink 100 is on switch 0: source 0 ejects locally, source 1 is the
	// first to route through the far end of the line.
	t.Run("loop", func(t *testing.T) {
		tp, tb := lineAllEndpoints(t, 3)
		if err := tb.Set(1, 100, []int{portTo(t, tp, 1, 2, 0)}); err != nil {
			t.Fatal(err)
		}
		err := Validate(tp, tb)
		if want := "routing: loop routing 1->100 (stuck near switch 2)"; err == nil || err.Error() != want {
			t.Errorf("validate = %v, want %q", err, want)
		}
	})
	t.Run("wrong eject", func(t *testing.T) {
		tp, tb := lineAllEndpoints(t, 3)
		if err := tb.Set(2, 100, []int{portTo(t, tp, 2, -1, 102)}); err != nil {
			t.Fatal(err)
		}
		err := Validate(tp, tb)
		if want := "routing: path 2->100 ejects at wrong endpoint 102"; err == nil || err.Error() != want {
			t.Errorf("validate = %v, want %q", err, want)
		}
	})
}

// validateEveryPair is the reference for Validate's walk: every (source,
// sink) path followed hop by hop to the end, nothing remembered between
// pairs.
func validateEveryPair(topo *topology.Topology, t *Table) error {
	maxHops := topo.NumSwitches() + 1
	links := topo.Links()
	for _, src := range topo.Sources() {
		for _, sink := range topo.Sinks() {
			sw := src.Switch
			for hop := 0; ; hop++ {
				if hop > maxHops {
					return fmt.Errorf("routing: loop routing %d->%d (stuck near switch %d)", src.ID, sink.ID, sw)
				}
				ports, err := t.Lookup(sw, sink.ID)
				if err != nil {
					return err
				}
				outs := topo.SwitchOutputs(sw)
				p := ports[0]
				if p < 0 || p >= len(outs) {
					return fmt.Errorf("routing: switch %d port %d out of range", sw, p)
				}
				oc := outs[p]
				if oc.Link == -1 {
					if vc := t.VC(sw, sink.ID); vc != 0 {
						return fmt.Errorf("routing: switch %d ejects to endpoint %d on virtual channel %d (ejection wires carry 0 only)", sw, sink.ID, vc)
					}
					if oc.Endpoint != sink.ID {
						return fmt.Errorf("routing: path %d->%d ejects at wrong endpoint %d", src.ID, sink.ID, oc.Endpoint)
					}
					break
				}
				sw = links[oc.Link].To
			}
		}
	}
	return nil
}

// Property: on XY mesh tables with a few random defects — a first
// candidate redirected to any port or out of range, an entry missing, a
// hop moved to class 1 — Validate returns exactly what the every-pair
// walk returns, error text included.
func TestValidateMatchesEveryPairWalk(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	// The defects must produce every verdict Validate has.
	verdicts := []string{"<nil>", "loop routing", "no route", "out of range", "ejection wires", "wrong endpoint"}
	seen := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		tp, err := topology.Mesh(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		tp.SetNumVC(2) // class 1 is in range: only the ejection check can object
		sinkPerSwitch(t, tp)
		built, err := BuildTable(tp)
		if err != nil {
			t.Fatal(err)
		}
		// Copy the table entry by entry, planting the defects on the way.
		n := tp.NumSwitches()
		tb := NewTable(n)
		for sw := topology.NodeID(0); int(sw) < n; sw++ {
			for _, dst := range built.Destinations(sw) {
				ports, _ := built.Lookup(sw, dst)
				switch rnd.Intn(40) {
				case 0:
					continue // routing gap
				case 1:
					ports = []int{rnd.Intn(len(tp.SwitchOutputs(sw)) + 1)}
				case 2:
					if err := tb.SetVC(sw, dst, 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := tb.Set(sw, dst, ports); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := Validate(tp, tb), validateEveryPair(tp, tb)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: validate = %v, every-pair walk = %v", trial, got, want)
		}
		for _, v := range verdicts {
			if strings.Contains(fmt.Sprint(want), v) {
				seen[v]++
			}
		}
	}
	for _, v := range verdicts {
		if seen[v] == 0 {
			t.Errorf("no trial ended in %q: %v", v, seen)
		}
	}
}

// mesh32 is the 1 024-switch mesh of the benchmark's largest workload,
// one source and one sink per switch, XY-routed.
func mesh32(b *testing.B) (*topology.Topology, *Table) {
	tp, err := topology.Mesh(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	sinkPerSwitch(b, tp)
	tb, err := BuildTable(tp)
	if err != nil {
		b.Fatal(err)
	}
	return tp, tb
}

var lookupSink int

// BenchmarkTableLookup times the per-head-flit route lookup — candidates
// and class, as Lookup then VC and as one Route (the _route rows, what
// a switch calls) — over a 1 024 × 1 024 table. mesh1024_hot cycles through
// 4 096 scattered (switch, destination) pairs, whose cells stay cached;
// mesh1024_random draws a million, so nearly every lookup's cell is a
// cache miss, as a head flit's is in a large run.
func BenchmarkTableLookup(b *testing.B) {
	tp, tb := mesh32(b)
	sinks := tp.Sinks()
	for _, bc := range []struct {
		name  string
		pairs int
	}{{"mesh1024_hot", 1 << 12}, {"mesh1024_random", 1 << 20}} {
		rnd := rand.New(rand.NewSource(1))
		type pair struct {
			sw  uint16
			dst flit.EndpointID
		}
		pairs := make([]pair, bc.pairs)
		for i := range pairs {
			pairs[i] = pair{uint16(rnd.Intn(tp.NumSwitches())), sinks[rnd.Intn(len(sinks))].ID}
		}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				ports, err := tb.Lookup(topology.NodeID(p.sw), p.dst)
				if err != nil {
					b.Fatal(err)
				}
				lookupSink += ports[0] + int(tb.VC(topology.NodeID(p.sw), p.dst))
			}
		})
		b.Run(bc.name+"_route", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				ports, vc, err := tb.Route(topology.NodeID(p.sw), p.dst)
				if err != nil {
					b.Fatal(err)
				}
				lookupSink += ports[0] + int(vc)
			}
		})
	}
}
