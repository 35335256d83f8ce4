package topology

import (
	"fmt"

	"nocemu/internal/flit"
)

// The classic shapes register as generators so that JSON configs, the
// -topo flag and the TOPOLOGIES.md catalog see them through the same
// registry as the large-scale zoo topologies (zoo.go). The exported
// constructors below lower into the registry; the Build closures own
// the link/endpoint construction order, which is part of the platform
// byte-identity contract (ports are numbered by insertion order).
func init() {
	Register(Generator{
		Kind:    "line",
		Summary: "bidirectional chain 0 <-> 1 <-> ... <-> n-1",
		Params: []ParamDoc{
			{Name: "n", Default: 4, Doc: "number of switches"},
		},
		RoutingDoc: "shortest path",
		Notes:      "deadlock-free: the channel graph is a tree",
		Example:    Spec{Kind: "line", Param: map[string]int{"n": 4}},
		Build:      func(p Params) (*Topology, error) { return buildLine(p.Get("n")) },
	})
	Register(Generator{
		Kind:    "ring",
		Summary: "bidirectional ring (n >= 3)",
		Params: []ParamDoc{
			{Name: "n", Default: 4, Doc: "number of switches"},
		},
		RoutingDoc: "shortest path",
		Notes:      "deadlock-free for single-sink traffic patterns; cyclic flows need care",
		Example:    Spec{Kind: "ring", Param: map[string]int{"n": 4}},
		Build:      func(p Params) (*Topology, error) { return buildRing(p.Get("n")) },
	})
	Register(Generator{
		Kind:    "mesh",
		Summary: "w x h 2-D mesh, switch (x,y) = y*w+x",
		Params: []ParamDoc{
			{Name: "w", Default: 4, Doc: "mesh width"},
			{Name: "h", Default: 4, Doc: "mesh height"},
		},
		RoutingDoc: "XY dimension-ordered",
		Notes:      "deadlock-free: XY forbids the turns that close dependency cycles",
		Example:    Spec{Kind: "mesh", Param: map[string]int{"w": 4, "h": 4}},
		Build:      func(p Params) (*Topology, error) { return buildMesh(p.Get("w"), p.Get("h")) },
	})
	Register(Generator{
		Kind:    "torus",
		Summary: "w x h 2-D torus (wrap-around mesh, both dims >= 3)",
		Params: []ParamDoc{
			{Name: "w", Default: 4, Doc: "torus width"},
			{Name: "h", Default: 4, Doc: "torus height"},
			{Name: "minimal", Default: 0, Doc: "1 = wrap-aware minimal DOR (deadlock-prone on one virtual channel)"},
			{Name: ParamVCs, Default: 1, Doc: "virtual channels per port; from 2 up, minimal=1 routes on dateline classes 0/1"},
		},
		RoutingDoc: "XY dimension-ordered (mesh interior; wrap links unused) — minimal=1 switches to wrap-aware DOR",
		Notes:      "default XY routing is deadlock-free; minimal=1 closes ring dependency cycles and is rejected by the deadlock checker at vcs=1, accepted with the dateline classes of vcs>=2",
		Example:    Spec{Kind: "torus", Param: map[string]int{"w": 4, "h": 4}},
		Build: func(p Params) (*Topology, error) {
			return buildTorus(p.Get("w"), p.Get("h"), p.Get("minimal") != 0, p.Get(ParamVCs) >= 2)
		},
	})
	Register(Generator{
		Kind:    "star",
		Summary: "hub switch 0 with bidirectional spokes to leaves 1..n",
		Params: []ParamDoc{
			{Name: "leaves", Default: 4, Doc: "number of leaf switches"},
		},
		RoutingDoc: "shortest path",
		Notes:      "deadlock-free: the channel graph is a tree",
		Example:    Spec{Kind: "star", Param: map[string]int{"leaves": 4}},
		Build:      func(p Params) (*Topology, error) { return buildStar(p.Get("leaves")) },
	})
	Register(Generator{
		Kind:    "tree",
		Summary: "complete fanout-ary tree, breadth-first numbering from the root",
		Params: []ParamDoc{
			{Name: "depth", Default: 2, Doc: "levels below the root (>= 1)"},
			{Name: "fanout", Default: 2, Doc: "children per switch (>= 2)"},
		},
		RoutingDoc: "shortest path (unique tree paths)",
		Notes:      "deadlock-free: the channel graph is a tree",
		Example:    Spec{Kind: "tree", Param: map[string]int{"depth": 2, "fanout": 2}},
		Build:      func(p Params) (*Topology, error) { return buildTree(p.Get("depth"), p.Get("fanout")) },
	})
	Register(Generator{
		Kind:    "full",
		Summary: "fully connected graph, a link between every switch pair",
		Params: []ParamDoc{
			{Name: "n", Default: 4, Doc: "number of switches (>= 2)"},
		},
		RoutingDoc: "shortest path (single hop)",
		Notes:      "deadlock-free: every route is one direct link",
		Example:    Spec{Kind: "full", Param: map[string]int{"n": 4}},
		Build:      func(p Params) (*Topology, error) { return buildFullyConnected(p.Get("n")) },
	})
	Register(Generator{
		Kind:       "paper-six",
		Summary:    "the paper's 6-switch platform: 4 TGs, 4 TRs, dual paths via S2/S3",
		RoutingDoc: "shortest path (experiments override per-destination ports)",
		Notes:      "endpoints are part of the shape (TG0-3 at S0/S1, TR100-103 at S4/S5)",
		Example:    Spec{Kind: "paper-six"},
		Build:      func(p Params) (*Topology, error) { return buildPaperSix() },
	})
}

// Line returns an n-switch chain with bidirectional links
// 0 <-> 1 <-> ... <-> n-1. Endpoints are attached by the caller.
func Line(n int) (*Topology, error) {
	return FromSpec(Spec{Kind: "line", Param: map[string]int{"n": n}})
}

func buildLine(n int) (*Topology, error) {
	t, err := New(fmt.Sprintf("line-%d", n), n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n-1; i++ {
		if err := t.AddBiLink(NodeID(i), NodeID(i+1)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Ring returns an n-switch bidirectional ring (n >= 3).
func Ring(n int) (*Topology, error) {
	return FromSpec(Spec{Kind: "ring", Param: map[string]int{"n": n}})
}

func buildRing(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs >= 3 switches, got %d", n)
	}
	t, err := New(fmt.Sprintf("ring-%d", n), n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := t.AddBiLink(NodeID(i), NodeID((i+1)%n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Mesh returns a w x h 2-D mesh with bidirectional links. Switch (x, y)
// has identifier y*w + x.
func Mesh(w, h int) (*Topology, error) {
	return FromSpec(Spec{Kind: "mesh", Param: map[string]int{"w": w, "h": h}})
}

func buildMesh(w, h int) (*Topology, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: mesh %dx%d", w, h)
	}
	t, err := New(fmt.Sprintf("mesh-%dx%d", w, h), w*h)
	if err != nil {
		return nil, err
	}
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := t.AddBiLink(id(x, y), id(x+1, y)); err != nil {
					return nil, err
				}
			}
			if y+1 < h {
				if err := t.AddBiLink(id(x, y), id(x, y+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	t.SetRouter(XYRouter{W: w})
	return t, nil
}

// Torus returns a w x h 2-D torus (wrap-around mesh); w and h must be
// at least 3 so wrap links do not duplicate mesh links.
func Torus(w, h int) (*Topology, error) {
	return FromSpec(Spec{Kind: "torus", Param: map[string]int{"w": w, "h": h}})
}

func buildTorus(w, h int, minimal, dateline bool) (*Topology, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("topology: torus %dx%d needs both dims >= 3", w, h)
	}
	t, err := buildMesh(w, h)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("torus-%dx%d", w, h)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		if err := t.AddBiLink(id(w-1, y), id(0, y)); err != nil {
			return nil, err
		}
	}
	for x := 0; x < w; x++ {
		if err := t.AddBiLink(id(x, h-1), id(x, 0)); err != nil {
			return nil, err
		}
	}
	if minimal {
		t.SetRouter(TorusMinimalRouter{W: w, H: h, Dateline: dateline})
	}
	return t, nil
}

// Star returns a hub-and-spoke topology: switch 0 is the hub joined by
// bidirectional links to leaves 1..n.
func Star(leaves int) (*Topology, error) {
	return FromSpec(Spec{Kind: "star", Param: map[string]int{"leaves": leaves}})
}

func buildStar(leaves int) (*Topology, error) {
	if leaves < 1 {
		return nil, fmt.Errorf("topology: star with %d leaves", leaves)
	}
	t, err := New(fmt.Sprintf("star-%d", leaves), leaves+1)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= leaves; i++ {
		if err := t.AddBiLink(0, NodeID(i)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MeshXY returns the switch coordinates of switch s in a w-wide mesh,
// for XY routing.
func MeshXY(s NodeID, w int) (x, y int) {
	return int(s) % w, int(s) / w
}

// PaperSix returns the paper's experimental platform (slides 17-19):
// six switches, four traffic generators, four traffic receptors.
//
// Layout (traffic flows left to right; all inter-switch links exist in
// both directions):
//
//	TG0,TG1 -> S0 --\            /-- S4 -> TR0,TR1
//	                 >-- S2, S3 --<
//	TG2,TG3 -> S1 --/            \-- S5 -> TR2,TR3
//
// Every source has two routing possibilities towards any sink (via S2
// or via S3). Under the paper's experiment routing, TG0/TG1 traffic to
// S4 shares link S2->S4 and TG2/TG3 traffic to S5 shares link S3->S5,
// so with each TG at 45% of link bandwidth those two links carry 90%.
func PaperSix() (*Topology, error) {
	return FromSpec(Spec{Kind: "paper-six"})
}

func buildPaperSix() (*Topology, error) {
	t, err := New("paper-six", 6)
	if err != nil {
		return nil, err
	}
	pairs := [][2]NodeID{
		{0, 2}, {0, 3},
		{1, 2}, {1, 3},
		{2, 4}, {2, 5},
		{3, 4}, {3, 5},
	}
	for _, p := range pairs {
		if err := t.AddBiLink(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	for i, sw := range []NodeID{0, 0, 1, 1} {
		if err := t.AddSource(flit.EndpointID(i), sw); err != nil {
			return nil, err
		}
	}
	for i, sw := range []NodeID{4, 4, 5, 5} {
		if err := t.AddSink(flit.EndpointID(100+i), sw); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// HotLinks returns the indices of the two links the paper's setup loads
// to 90% (S2->S4 and S3->S5) in a PaperSix topology.
func HotLinks(t *Topology) (s2s4, s3s5 int, err error) {
	s2s4, s3s5 = -1, -1
	for i, l := range t.Links() {
		if l.From == 2 && l.To == 4 {
			s2s4 = i
		}
		if l.From == 3 && l.To == 5 {
			s3s5 = i
		}
	}
	if s2s4 < 0 || s3s5 < 0 {
		return 0, 0, fmt.Errorf("topology %s: hot links not found", t.Name())
	}
	return s2s4, s3s5, nil
}

// FullyConnected returns n switches (n >= 2) with a bidirectional link
// between every pair — the upper bound on switch degree, useful as a
// routing/arbitration stress shape.
func FullyConnected(n int) (*Topology, error) {
	return FromSpec(Spec{Kind: "full", Param: map[string]int{"n": n}})
}

func buildFullyConnected(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: fully connected needs >= 2 switches, got %d", n)
	}
	t, err := New(fmt.Sprintf("full-%d", n), n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := t.AddBiLink(NodeID(i), NodeID(j)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Tree returns a complete fanout-ary tree of the given depth
// (depth >= 1 levels below the root) with bidirectional links. Switches
// are numbered in breadth-first order from the root (switch 0); leaves
// occupy the last level. Aggregation traffic (leaves to root) is the
// classic use.
func Tree(depth, fanout int) (*Topology, error) {
	return FromSpec(Spec{Kind: "tree", Param: map[string]int{"depth": depth, "fanout": fanout}})
}

func buildTree(depth, fanout int) (*Topology, error) {
	if depth < 1 || fanout < 2 {
		return nil, fmt.Errorf("topology: tree depth %d fanout %d", depth, fanout)
	}
	// Total nodes of a complete tree: (fanout^(depth+1) - 1) / (fanout - 1).
	total := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= fanout
		total += level
	}
	t, err := New(fmt.Sprintf("tree-%dx%d", depth, fanout), total)
	if err != nil {
		return nil, err
	}
	for parent := 0; ; parent++ {
		firstChild := parent*fanout + 1
		if firstChild >= total {
			break
		}
		for c := 0; c < fanout; c++ {
			child := firstChild + c
			if child >= total {
				break
			}
			if err := t.AddBiLink(NodeID(parent), NodeID(child)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// TreeLeaves returns the switch identifiers of the last level of a
// Tree(depth, fanout) topology.
func TreeLeaves(depth, fanout int) []NodeID {
	total := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= fanout
		total += level
	}
	leaves := make([]NodeID, 0, level)
	for i := total - level; i < total; i++ {
		leaves = append(leaves, NodeID(i))
	}
	return leaves
}
