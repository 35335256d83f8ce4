// Package routing builds and holds the routing tables of the emulated
// switches.
//
// The paper's switches are table-routed: the platform compilation step
// fills each switch's table so that any packet-switching scheme can be
// emulated without hardware changes. A table maps (switch, destination
// endpoint) to an ordered list of candidate output ports; more than one
// candidate expresses path diversity (the experimental setup gives each
// source "two routing possibilities"). The selection policy that picks
// among candidates at packet time lives in the switch.
package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

// Policy selects among candidate output ports for a head flit.
type Policy string

const (
	// First always takes the first candidate (deterministic single path).
	First Policy = "first"
	// PacketModulo spreads packets across candidates by sequence number,
	// giving the static two-way split of the paper's setup.
	PacketModulo Policy = "packet-modulo"
	// Random picks a candidate from the switch's LFSR.
	Random Policy = "random"
	// Adaptive picks the candidate with the most downstream credits.
	Adaptive Policy = "adaptive"
)

// ValidPolicy reports whether p names a known selection policy.
func ValidPolicy(p Policy) bool {
	switch p {
	case First, PacketModulo, Random, Adaptive:
		return true
	}
	return false
}

// Table holds, for every switch, the candidate output ports toward each
// destination endpoint and the virtual-channel class the hop travels
// on. The class is data like the ports: a pure function of (switch,
// destination) the topology's Router emits, so the switch needs no
// per-packet state to follow a dateline scheme.
//
// The store is flat and a cell is two bytes (DESIGN.md §14, "Table
// layout"): a row per switch, a column per destination, each cell the
// index of a dictionary entry that names a run of the shared candidate
// pool and the class. Tables repeat themselves — an XY mesh has five
// distinct entries, a 31-port butterfly 31 — so a lookup is one cold
// 2-byte load plus loads from a dictionary and a pool that stay in L1.
// Entries are shared and immutable: Set and SetVC re-point the cell.
type Table struct {
	// col maps a destination id to its column plus one (0: the table has
	// never seen the id); ids is the inverse. Columns are handed out in
	// order of first use, so a row is as wide as the destination count
	// whatever the id numbering.
	col  []int32
	ids  []flit.EndpointID
	rows [][]uint16 // per switch; a row may stop short of len(ids)
	// dict[0] is "no route, class 0", what an unset cell says; index is
	// dict's inverse.
	dict  []entry
	index map[entry]uint16
	pool  []int
}

// entry is what a cell says: n candidate ports at pool[off:], leaving on
// class vc. n == 0 means no route.
type entry struct {
	off uint32
	n   uint16
	vc  uint8
}

// NewTable returns an empty table for n switches.
func NewTable(n int) *Table {
	return &Table{rows: make([][]uint16, n), dict: make([]entry, 1), index: map[entry]uint16{{}: 0}}
}

// newTableFor returns an empty table for n switches sized for sinks: a
// column each and full-width rows cut from one slab, so filling it
// reallocates no row. The pool grows as distinct lists arrive.
func newTableFor(n int, sinks []topology.EndpointSpec) *Table {
	t := NewTable(n)
	for _, sink := range sinks {
		t.column(sink.ID)
	}
	w := len(t.ids)
	slab := make([]uint16, len(t.rows)*w)
	for sw := range t.rows {
		t.rows[sw] = slab[sw*w : (sw+1)*w : (sw+1)*w]
	}
	return t
}

// column returns dst's column, assigning the next free one on first use.
func (t *Table) column(dst flit.EndpointID) int {
	if int(dst) >= len(t.col) {
		t.col = append(t.col, make([]int32, int(dst)+1-len(t.col))...)
	}
	if t.col[dst] == 0 {
		t.ids = append(t.ids, dst)
		t.col[dst] = int32(len(t.ids))
	}
	return int(t.col[dst]) - 1
}

// slot returns the cell of (sw, dst) for writing, widening the row to
// reach it. sw must be in range.
func (t *Table) slot(sw topology.NodeID, dst flit.EndpointID) *uint16 {
	c := t.column(dst)
	if c >= len(t.rows[sw]) {
		t.rows[sw] = append(t.rows[sw], make([]uint16, c+1-len(t.rows[sw]))...)
	}
	return &t.rows[sw][c]
}

// find returns what the cell of (sw, dst) says, the zero entry when the
// table has no such cell. sw must be in range.
func (t *Table) find(sw topology.NodeID, dst flit.EndpointID) entry {
	if int(dst) < len(t.col) {
		if c := int(t.col[dst]) - 1; c >= 0 && c < len(t.rows[sw]) {
			return t.dict[t.rows[sw][c]]
		}
	}
	return entry{}
}

// point makes the cell of (sw, dst) say e, through e's dictionary entry,
// added on first use. The dictionary is full at 65 536 entries; the cell
// is untouched then.
func (t *Table) point(sw topology.NodeID, dst flit.EndpointID, e entry) error {
	i, ok := t.index[e]
	if !ok {
		if len(t.dict) > math.MaxUint16 {
			return fmt.Errorf("routing: switch %d dst %d needs a %dth distinct table entry", sw, dst, len(t.dict)+1)
		}
		i = uint16(len(t.dict))
		t.dict = append(t.dict, e)
		t.index[e] = i
	}
	*t.slot(sw, dst) = i
	return nil
}

// Set replaces the candidate ports for (sw, dst). The experiments use
// this to pin specific paths (e.g. to construct the paper's two
// 90%-loaded links). A list some dictionary entry already names is
// reused, pool run included; a new one is appended to the pool. Nothing
// is written in place, so rewriting a cell back and forth grows nothing.
func (t *Table) Set(sw topology.NodeID, dst flit.EndpointID, ports []int) error {
	if int(sw) < 0 || int(sw) >= len(t.rows) {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	if len(ports) == 0 {
		return fmt.Errorf("routing: empty port list for switch %d dst %d", sw, dst)
	}
	if len(ports) > math.MaxUint16 {
		return fmt.Errorf("routing: %d candidate ports for switch %d dst %d", len(ports), sw, dst)
	}
	cell := t.slot(sw, dst)
	e := entry{off: uint32(len(t.pool)), n: uint16(len(ports)), vc: t.dict[*cell].vc}
	for i, d := range t.dict {
		if d.n == e.n && slices.Equal(t.pool[d.off:int(d.off)+len(ports)], ports) {
			if d.vc == e.vc { // the common case, spared the index's hash
				*cell = uint16(i)
				return nil
			}
			e.off = d.off
		}
	}
	if err := t.point(sw, dst, e); err != nil {
		return err
	}
	if int(e.off) == len(t.pool) {
		t.pool = append(t.pool, ports...)
	}
	return nil
}

// Lookup returns the candidate output ports at switch sw for packets to
// dst. The result is a view into the table: callers must not write
// through it (appending is safe, its capacity is its length).
func (t *Table) Lookup(sw topology.NodeID, dst flit.EndpointID) ([]int, error) {
	ports, _, err := t.Route(sw, dst)
	return ports, err
}

// Route returns the candidate output ports for (sw, dst) and the
// virtual-channel class of the hop, from one read of the cell: what a
// switch needs for a head flit, Lookup and VC together.
func (t *Table) Route(sw topology.NodeID, dst flit.EndpointID) ([]int, uint8, error) {
	if int(sw) < 0 || int(sw) >= len(t.rows) {
		return nil, 0, fmt.Errorf("routing: switch %d out of range", sw)
	}
	e := t.find(sw, dst)
	if e.n == 0 {
		return nil, 0, fmt.Errorf("routing: no route at switch %d to endpoint %d", sw, dst)
	}
	return t.run(e), e.vc, nil
}

// run returns e's candidate ports, capacity-capped.
func (t *Table) run(e entry) []int {
	end := int(e.off) + int(e.n)
	return t.pool[e.off:end:end]
}

// SetVC sets the virtual-channel class of the hop (sw, dst) takes; the
// default is class 0.
func (t *Table) SetVC(sw topology.NodeID, dst flit.EndpointID, vc uint8) error {
	if int(sw) < 0 || int(sw) >= len(t.rows) {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	e := t.find(sw, dst)
	e.vc = vc
	return t.point(sw, dst, e)
}

// BuildShortestPath fills a table with all minimal paths: at each
// switch, the candidates for a destination are every output port whose
// link leads one hop closer to the destination's switch, ordered by
// output port index; at the destination's switch the single candidate
// is the sink's local port. Every (reachable switch, sink) pair gets an
// entry.
func BuildShortestPath(topo *topology.Topology) (*Table, error) {
	sinks := topo.Sinks()
	t := newTableFor(topo.NumSwitches(), sinks)
	links := topo.Links()
	// Reverse adjacency for backward BFS from each sink switch.
	radj := make([][]topology.NodeID, topo.NumSwitches())
	for _, l := range links {
		radj[l.To] = append(radj[l.To], l.From)
	}
	var ports []int // scratch: Set copies it
	for _, sink := range sinks {
		dist := bfsDistances(radj, sink.Switch, topo.NumSwitches())
		for sw := topology.NodeID(0); int(sw) < topo.NumSwitches(); sw++ {
			outs := topo.SwitchOutputs(sw)
			if sw == sink.Switch {
				port := -1
				for p, oc := range outs {
					if oc.Link == -1 && oc.Endpoint == sink.ID {
						port = p
						break
					}
				}
				if port < 0 {
					return nil, fmt.Errorf("routing: sink %d has no local port on switch %d", sink.ID, sw)
				}
				if err := t.Set(sw, sink.ID, []int{port}); err != nil {
					return nil, err
				}
				continue
			}
			d := dist[sw]
			if d < 0 {
				continue // sink unreachable from here
			}
			ports = ports[:0]
			for p, oc := range outs {
				if oc.Link < 0 {
					continue
				}
				next := links[oc.Link].To
				if dist[next] == d-1 {
					ports = append(ports, p)
				}
			}
			if len(ports) == 0 {
				return nil, fmt.Errorf("routing: switch %d at distance %d has no descending port to sink %d", sw, d, sink.ID)
			}
			if err := t.Set(sw, sink.ID, ports); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// bfsDistances returns hop distances to target over the reversed graph
// (-1 when unreachable).
func bfsDistances(radj [][]topology.NodeID, target topology.NodeID, n int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[target] = 0
	queue := []topology.NodeID{target}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, prev := range radj[cur] {
			if dist[prev] < 0 {
				dist[prev] = dist[cur] + 1
				queue = append(queue, prev)
			}
		}
	}
	return dist
}

// BuildTable fills a table using the topology's own routing recipe:
// the Router annotation its generator attached, or all-minimal-paths
// shortest-path routing when there is none. This is the default
// platform build path — a generator that registers a Router gets its
// scheme everywhere (JSON, flags, benches) without further wiring.
func BuildTable(topo *topology.Topology) (*Table, error) {
	if r := topo.Router(); r != nil {
		return BuildFromRouter(topo, r)
	}
	return BuildShortestPath(topo)
}

// BuildFromRouter lowers a topology.Router into per-switch route
// tables: for every (switch, sink) pair the router's next-hop switches
// are resolved to output ports (the first port reaching each hop, in
// the router's candidate order); at the sink's own switch the single
// candidate is the sink's local port. Switches where the router
// returns no hops get no entry — Validate catches the gap if a packet
// would actually route through it. A router that also classifies its
// hops (topology.VCRouter) has each hop's virtual-channel class stored
// beside the ports; the ejection hop is always class 0.
func BuildFromRouter(topo *topology.Topology, r topology.Router) (*Table, error) {
	n := topo.NumSwitches()
	sinks := topo.Sinks()
	t := newTableFor(n, sinks)
	links := topo.Links()
	classes, _ := r.(topology.VCRouter)
	// The output port toward each neighbour, built once: switch sw's
	// neighbours are nbrs[nbrOff[sw]:nbrOff[sw+1]], in ascending order.
	// Links are unique per ordered switch pair, so a neighbour has one
	// port, and resolving a hop is a binary search over the switch's
	// radix, not a scan of its outputs per (switch, sink).
	type nbr struct {
		sw   topology.NodeID
		port int
	}
	nbrs := make([]nbr, 0, len(links))
	nbrOff := make([]int, n+1)
	for sw := topology.NodeID(0); int(sw) < n; sw++ {
		start := len(nbrs)
		for p, oc := range topo.SwitchOutputs(sw) {
			if oc.Link >= 0 {
				nbrs = append(nbrs, nbr{links[oc.Link].To, p})
			}
		}
		slices.SortFunc(nbrs[start:], func(a, b nbr) int { return cmp.Compare(a.sw, b.sw) })
		nbrOff[sw+1] = len(nbrs)
	}
	portTo := func(sw, next topology.NodeID) (int, bool) {
		ns := nbrs[nbrOff[sw]:nbrOff[sw+1]]
		i, ok := slices.BinarySearchFunc(ns, next, func(a nbr, next topology.NodeID) int { return cmp.Compare(a.sw, next) })
		if !ok {
			return 0, false
		}
		return ns[i].port, true
	}
	var ports []int // scratch: Set copies it
	for _, sink := range sinks {
		for sw := topology.NodeID(0); int(sw) < n; sw++ {
			if sw == sink.Switch {
				port := -1
				for p, oc := range topo.SwitchOutputs(sw) {
					if oc.Link == -1 && oc.Endpoint == sink.ID {
						port = p
						break
					}
				}
				if port < 0 {
					return nil, fmt.Errorf("routing: sink %d has no local port on switch %d", sink.ID, sw)
				}
				if err := t.Set(sw, sink.ID, []int{port}); err != nil {
					return nil, err
				}
				continue
			}
			hops := r.NextHops(topo, sw, sink.Switch)
			if len(hops) == 0 {
				continue
			}
			ports = ports[:0]
			for _, next := range hops {
				port, ok := portTo(sw, next)
				if !ok {
					return nil, fmt.Errorf("routing: %s router wants hop %d->%d but no link exists", r.Name(), sw, next)
				}
				ports = append(ports, port)
			}
			if err := t.Set(sw, sink.ID, ports); err != nil {
				return nil, err
			}
			if classes != nil {
				if err := t.SetVC(sw, sink.ID, classes.HopVC(sw, sink.Switch)); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Validate walks every (source, sink) pair following first-candidate
// routing and confirms the path terminates at the sink within a hop
// budget and stays on virtual channels the topology has, catching
// routing loops, dead ends and out-of-range classes at
// platform-compilation time.
//
// First-candidate routing toward a sink depends on the switch alone, so
// a walk stops at the first switch an earlier walk already took to that
// sink: every pair is still checked, in the same order, at a cost of
// one step per (switch, sink) instead of a full path per pair.
func Validate(topo *topology.Topology, t *Table) error {
	n := topo.NumSwitches()
	maxHops := n + 1
	links := topo.Links()
	nv := topo.NumVC()
	for sw, row := range t.rows {
		for c, i := range row {
			if vc := t.dict[i].vc; int(vc) >= nv {
				return fmt.Errorf("routing: switch %d routes to endpoint %d on virtual channel %d of %d", sw, t.ids[c], vc, nv)
			}
		}
	}
	srcs, sinks := topo.Sources(), topo.Sinks()
	// Bit k*n+sw: the walk from switch sw delivers to sinks[k].
	delivers := make([]uint64, (len(sinks)*n+63)/64)
	var path []topology.NodeID
	for _, src := range srcs {
		for k, sink := range sinks {
			sw := src.Switch
			path = path[:0]
			for hop := 0; ; hop++ {
				if b := k*n + int(sw); delivers[b>>6]>>(b&63)&1 != 0 {
					break
				}
				if hop > maxHops {
					return fmt.Errorf("routing: loop routing %d->%d (stuck near switch %d)", src.ID, sink.ID, sw)
				}
				ports, vc, err := t.Route(sw, sink.ID)
				if err != nil {
					return err
				}
				outs := topo.SwitchOutputs(sw)
				p := ports[0]
				if p < 0 || p >= len(outs) {
					return fmt.Errorf("routing: switch %d port %d out of range", sw, p)
				}
				path = append(path, sw)
				oc := outs[p]
				if oc.Link == -1 {
					if vc != 0 {
						return fmt.Errorf("routing: switch %d ejects to endpoint %d on virtual channel %d (ejection wires carry 0 only)", sw, sink.ID, vc)
					}
					if oc.Endpoint != sink.ID {
						return fmt.Errorf("routing: path %d->%d ejects at wrong endpoint %d", src.ID, sink.ID, oc.Endpoint)
					}
					break
				}
				sw = links[oc.Link].To
			}
			for _, sw := range path {
				b := k*n + int(sw)
				delivers[b>>6] |= 1 << (b & 63)
			}
		}
	}
	return nil
}
