// Package topology describes the switch graph of an emulated NoC.
//
// The paper's platform is built around a configurable "switch topology":
// a set of switches joined by unidirectional links, with traffic
// generators (sources) and traffic receptors (sinks) attached to switch
// local ports. The topology fixes each switch's number of inputs and
// outputs — two of the three switch parameters the paper studies.
package topology

import (
	"fmt"

	"nocemu/internal/flit"
)

// NodeID identifies a switch within a topology.
type NodeID int

// Role says whether an endpoint injects or ejects traffic.
type Role uint8

const (
	// Source endpoints inject packets (traffic generators).
	Source Role = iota + 1
	// Sink endpoints absorb packets (traffic receptors).
	Sink
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Source:
		return "source"
	case Sink:
		return "sink"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// LinkSpec is a unidirectional switch-to-switch channel.
type LinkSpec struct {
	From, To NodeID
}

// EndpointSpec attaches an endpoint to a switch local port.
type EndpointSpec struct {
	ID     flit.EndpointID
	Switch NodeID
	Role   Role
}

// InConn describes one input port of a switch: it is fed either by an
// inter-switch link (Link >= 0) or by a local source endpoint.
type InConn struct {
	// Link is the index into Links(), or -1 for a local endpoint.
	Link int
	// Endpoint is the injecting endpoint when Link == -1.
	Endpoint flit.EndpointID
}

// OutConn describes one output port of a switch: it drives either an
// inter-switch link (Link >= 0) or a local sink endpoint.
type OutConn struct {
	// Link is the index into Links(), or -1 for a local endpoint.
	Link int
	// Endpoint is the receiving endpoint when Link == -1.
	Endpoint flit.EndpointID
}

// Topology is a switch graph plus endpoint attachments. Build one with
// New and the Add* methods, or with the shape constructors (Line, Ring,
// Mesh, Torus, Star, PaperSix).
type Topology struct {
	name        string
	numSwitches int
	links       []LinkSpec
	endpoints   []EndpointSpec

	// router is the routing recipe the topology's generator attached
	// (nil = generic shortest-path routing).
	router Router
	// terminals lists where endpoints should attach, one entry per
	// terminal slot (nil = one slot per switch).
	terminals []NodeID
	// numVC is the virtual-channel count the generator asked for
	// (0 = one channel).
	numVC int

	// Port-list caches. Platform compilation and routing validation call
	// SwitchInputs/SwitchOutputs inside loops over switches × sinks;
	// recomputing them by scanning every link each call turns a
	// 1k-switch build into minutes. They are built lazily on first read
	// and dropped by any mutation (AddLink, AddSource, AddSink).
	inCache  [][]InConn
	outCache [][]OutConn
	// linkSet indexes the links for AddLink's duplicate check, which
	// scanned every earlier link. It is construction state: building the
	// port caches drops it, since a compiled topology is read, not grown,
	// and an AddLink after that re-derives it.
	linkSet map[LinkSpec]struct{}
	// epIndex maps an endpoint id to its attachment, for Endpoint and
	// for addEndpoint's duplicate check. It is built on first use and
	// kept current by addEndpoint.
	epIndex map[flit.EndpointID]EndpointSpec
}

// SetRouter attaches the topology's routing recipe. Generators call it
// once links are final; routing.BuildTable consumes it (nil keeps the
// generic shortest-path fallback).
func (t *Topology) SetRouter(r Router) { t.router = r }

// Router returns the attached routing recipe, or nil.
func (t *Topology) Router() Router { return t.router }

// MaxVCs bounds the virtual channels per port: the flit's channel tag
// is one byte.
const MaxVCs = 256

// SetNumVC records how many virtual channels every inter-switch port
// carries; the platform sizes its switches and wires from it. FromSpec
// sets it from a generator's "vcs" parameter.
func (t *Topology) SetNumVC(n int) { t.numVC = n }

// NumVC returns the virtual channels per port (at least 1).
func (t *Topology) NumVC() int {
	if t.numVC < 1 {
		return 1
	}
	return t.numVC
}

// SetTerminals records where endpoint pairs should attach, one entry
// per terminal slot; a switch may appear multiple times (a fat-tree
// edge switch hosts several endpoints).
func (t *Topology) SetTerminals(ts []NodeID) { t.terminals = ts }

// Terminals returns the endpoint attachment slots: the generator's
// list, or (by default) every switch once in identifier order. Callers
// must not mutate the result.
func (t *Topology) Terminals() []NodeID {
	if t.terminals != nil {
		return t.terminals
	}
	ts := make([]NodeID, t.numSwitches)
	for i := range ts {
		ts[i] = NodeID(i)
	}
	return ts
}

// buildPortCaches fills the per-switch canonical port lists in one pass
// over the links and endpoints, and drops the link index.
func (t *Topology) buildPortCaches() {
	t.linkSet = nil
	t.inCache = make([][]InConn, t.numSwitches)
	t.outCache = make([][]OutConn, t.numSwitches)
	for i, l := range t.links {
		t.inCache[l.To] = append(t.inCache[l.To], InConn{Link: i})
		t.outCache[l.From] = append(t.outCache[l.From], OutConn{Link: i})
	}
	for _, e := range t.endpoints {
		switch e.Role {
		case Source:
			t.inCache[e.Switch] = append(t.inCache[e.Switch], InConn{Link: -1, Endpoint: e.ID})
		case Sink:
			t.outCache[e.Switch] = append(t.outCache[e.Switch], OutConn{Link: -1, Endpoint: e.ID})
		}
	}
}

// New returns an empty topology over n switches.
func New(name string, n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology %s: %d switches", name, n)
	}
	return &Topology{name: name, numSwitches: n}, nil
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return t.numSwitches }

// Links returns the link list; the index of a link in this slice is its
// stable identifier.
func (t *Topology) Links() []LinkSpec { return t.links }

func (t *Topology) checkNode(s NodeID) error {
	if s < 0 || int(s) >= t.numSwitches {
		return fmt.Errorf("topology %s: switch %d out of range [0,%d)", t.name, s, t.numSwitches)
	}
	return nil
}

// AddLink adds a unidirectional link. Self-loops and duplicate links are
// rejected.
func (t *Topology) AddLink(from, to NodeID) error {
	if err := t.checkNode(from); err != nil {
		return err
	}
	if err := t.checkNode(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("topology %s: self-loop at switch %d", t.name, from)
	}
	if t.linkSet == nil {
		t.linkSet = make(map[LinkSpec]struct{}, len(t.links))
		for _, l := range t.links {
			t.linkSet[l] = struct{}{}
		}
	}
	l := LinkSpec{From: from, To: to}
	if _, dup := t.linkSet[l]; dup {
		return fmt.Errorf("topology %s: duplicate link %d->%d", t.name, from, to)
	}
	t.linkSet[l] = struct{}{}
	t.links = append(t.links, l)
	t.inCache, t.outCache = nil, nil
	return nil
}

// AddBiLink adds links in both directions.
func (t *Topology) AddBiLink(a, b NodeID) error {
	if err := t.AddLink(a, b); err != nil {
		return err
	}
	return t.AddLink(b, a)
}

func (t *Topology) addEndpoint(id flit.EndpointID, sw NodeID, role Role) error {
	if err := t.checkNode(sw); err != nil {
		return err
	}
	if _, dup := t.Endpoint(id); dup {
		return fmt.Errorf("topology %s: duplicate endpoint %d", t.name, id)
	}
	e := EndpointSpec{ID: id, Switch: sw, Role: role}
	t.endpoints = append(t.endpoints, e)
	t.epIndex[id] = e
	t.inCache, t.outCache = nil, nil
	return nil
}

// AddSource attaches a traffic-generator endpoint to a switch.
func (t *Topology) AddSource(id flit.EndpointID, sw NodeID) error {
	return t.addEndpoint(id, sw, Source)
}

// AddSink attaches a traffic-receptor endpoint to a switch.
func (t *Topology) AddSink(id flit.EndpointID, sw NodeID) error {
	return t.addEndpoint(id, sw, Sink)
}

// Endpoint returns the attachment of the given endpoint.
func (t *Topology) Endpoint(id flit.EndpointID) (EndpointSpec, bool) {
	if t.epIndex == nil {
		t.epIndex = make(map[flit.EndpointID]EndpointSpec, len(t.endpoints))
		for _, e := range t.endpoints {
			t.epIndex[e.ID] = e
		}
	}
	e, ok := t.epIndex[id]
	return e, ok
}

// Sources returns the source endpoints in attachment order.
func (t *Topology) Sources() []EndpointSpec { return t.byRole(Source) }

// Sinks returns the sink endpoints in attachment order.
func (t *Topology) Sinks() []EndpointSpec { return t.byRole(Sink) }

func (t *Topology) byRole(r Role) []EndpointSpec {
	var out []EndpointSpec
	for _, e := range t.endpoints {
		if e.Role == r {
			out = append(out, e)
		}
	}
	return out
}

// SwitchInputs returns the input ports of switch s in canonical order:
// link-fed ports first (by link index), then local sources (by
// attachment order). The slice index is the input port number. The
// returned slice is cached; callers must not mutate it.
func (t *Topology) SwitchInputs(s NodeID) []InConn {
	if t.inCache == nil {
		t.buildPortCaches()
	}
	return t.inCache[s]
}

// SwitchOutputs returns the output ports of switch s in canonical
// order: link-driven ports first, then local sinks. The slice index is
// the output port number. The returned slice is cached; callers must
// not mutate it.
func (t *Topology) SwitchOutputs(s NodeID) []OutConn {
	if t.outCache == nil {
		t.buildPortCaches()
	}
	return t.outCache[s]
}

// Adjacency returns, for each switch, the list of (link index, neighbor)
// pairs of its outgoing links.
func (t *Topology) Adjacency() [][]Edge {
	adj := make([][]Edge, t.numSwitches)
	for i, l := range t.links {
		adj[l.From] = append(adj[l.From], Edge{Link: i, To: l.To})
	}
	return adj
}

// Edge is one outgoing link in an adjacency list.
type Edge struct {
	Link int
	To   NodeID
}

// reach lists the switches reachable from s (including s) in
// breadth-first order, into queue's storage. seen is the caller's
// visited set, one int per switch: an entry equal to stamp is visited,
// so a caller searching from many starts reuses seen and queue with a
// fresh stamp each time instead of clearing them.
func reach(adj [][]Edge, s NodeID, seen []int, stamp int, queue []NodeID) []NodeID {
	seen[s] = stamp
	queue = append(queue[:0], s)
	for i := 0; i < len(queue); i++ {
		for _, e := range adj[queue[i]] {
			if seen[e.To] != stamp {
				seen[e.To] = stamp
				queue = append(queue, e.To)
			}
		}
	}
	return queue
}

// Validate checks the structural invariants needed before platform
// compilation: at least one source and one sink, every source able to
// reach every sink's switch, and no switch with zero ports.
//
// Every switch of a strongly connected component reaches what the others
// reach, so reachability is searched once per component that holds a
// source, not once per source: once for any topology with links both
// ways. The first failing (source, sink) pair is still the one a search
// per source finds first.
func (t *Topology) Validate() error {
	srcs, sinks := t.Sources(), t.Sinks()
	if len(srcs) == 0 {
		return fmt.Errorf("topology %s: no sources", t.name)
	}
	if len(sinks) == 0 {
		return fmt.Errorf("topology %s: no sinks", t.name)
	}
	adj := t.Adjacency()
	radj := make([][]Edge, t.numSwitches)
	for i, l := range t.links {
		radj[l.To] = append(radj[l.To], Edge{Link: i, To: l.From})
	}
	fwd, back := make([]int, t.numSwitches), make([]int, t.numSwitches)
	checked := make([]bool, t.numSwitches) // in the component of a checked source
	var queue []NodeID
	for i, src := range srcs {
		if checked[src.Switch] {
			continue
		}
		queue = reach(adj, src.Switch, fwd, i+1, queue)
		for _, snk := range sinks {
			if fwd[snk.Switch] != i+1 {
				return fmt.Errorf("topology %s: sink %d (switch %d) unreachable from source %d (switch %d)",
					t.name, snk.ID, snk.Switch, src.ID, src.Switch)
			}
		}
		// The component is what src reaches and what reaches src.
		queue = reach(radj, src.Switch, back, i+1, queue)
		for _, s := range queue {
			if fwd[s] == i+1 {
				checked[s] = true
			}
		}
	}
	for s := NodeID(0); int(s) < t.numSwitches; s++ {
		if len(t.SwitchInputs(s)) == 0 && len(t.SwitchOutputs(s)) == 0 {
			return fmt.Errorf("topology %s: switch %d has no ports", t.name, s)
		}
	}
	return nil
}
