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
// The store is paged and a cell is two bytes (DESIGN.md §14, "Table
// layout"): a row per switch, a column per destination, each cell the
// index of a dictionary entry that names a run of the shared candidate
// pool and the class. A row is a run of page ids, and a page — 64
// cells, or the row's width rounded up to a power of two when that is
// less — is stored once per distinct content. Tables repeat
// themselves: an XY mesh has five distinct entries, and a 32×32 one 224
// distinct pages among its 16 384, so a lookup is one load of a page
// id, one of the cell, and loads from a dictionary and a pool that stay
// in L1. Entries and pages are shared and immutable: Set re-points the
// cell, and its row at the page holding the new content, a new page
// when none does.
type Table struct {
	// col maps a destination id to its column plus one (0: the table has
	// never seen the id); ids is the inverse. Columns are handed out in
	// order of first use, so a row is as wide as the destination count
	// whatever the id numbering.
	col []int32
	ids []flit.EndpointID
	n   int // switches
	// Row sw is stride page ids at rows[sw*stride:], enough pages for
	// every column; page p holds cells[p<<shift : (p+1)<<shift], and page
	// 0 is all "no route", what a row's new pages start as. pages maps a
	// page's content hash to a page holding it; a page no row names
	// simply stays, as an unnamed dictionary entry does.
	shift  uint8
	stride int
	rows   []uint16
	cells  []uint16
	pages  map[uint64]uint16
	// dict[0] is "no route, class 0", what an unset cell says; index is
	// dict's inverse.
	dict  []entry
	index map[entry]uint16
	pool  []int
}

// maxShift sizes the largest page: 64 cells.
const maxShift = 6

// entry is what a cell says: n candidate ports at pool[off:], leaving on
// class vc. n == 0 means no route.
type entry struct {
	off uint32
	n   uint16
	vc  uint8
}

// NewTable returns an empty table for n switches, on 64-cell pages.
func NewTable(n int) *Table {
	return &Table{n: n, shift: maxShift, pages: map[uint64]uint16{}, dict: make([]entry, 1), index: map[entry]uint16{{}: 0}}
}

// builder is a table under construction: the table with a column per
// sink and the flat cells the builders fill, row sw at cells[sw*w:], w
// a whole number of pages. pack pages them once, so a build hashes each
// page once rather than copying one per cell written.
type builder struct {
	t     *Table
	cells []uint16
	w     int
}

// newBuilder returns a builder for n switches sized for sinks. A row
// shorter than a 64-cell page gets pages of its width rounded up to a
// power of two, so a small table is not padded to 64 columns.
func newBuilder(n int, sinks []topology.EndpointSpec) *builder {
	t := NewTable(n)
	t.shift = 0 // before the first page
	for t.shift < maxShift && 1<<t.shift < len(sinks) {
		t.shift++
	}
	for _, sink := range sinks {
		t.column(sink.ID)
	}
	w := t.stride << t.shift
	return &builder{t: t, cells: make([]uint16, n*w), w: w}
}

// set makes the cell of (sw, dst) name ports on class vc; dst must be
// a sink the builder was sized for.
func (b *builder) set(sw topology.NodeID, dst flit.EndpointID, ports []int, vc uint8) error {
	i, err := b.t.intern(sw, dst, ports, vc)
	if err != nil {
		return err
	}
	b.cells[int(sw)*b.w+int(b.t.col[dst])-1] = i
	return nil
}

// pack pages the built cells into the table and returns it.
func (b *builder) pack() (*Table, error) {
	t := b.t
	for slot := range t.rows {
		page := b.cells[slot<<t.shift : (slot+1)<<t.shift]
		id, err := t.share(page)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		t.rows[slot] = id
	}
	return t, nil
}

// column returns dst's column, assigning the next free one on first use
// and giving every row another page when the new column needs one.
func (t *Table) column(dst flit.EndpointID) int {
	if int(dst) >= len(t.col) {
		t.col = append(t.col, make([]int32, int(dst)+1-len(t.col))...)
	}
	if t.col[dst] == 0 {
		t.ids = append(t.ids, dst)
		t.col[dst] = int32(len(t.ids))
		if len(t.ids) > t.stride<<t.shift {
			t.widen()
		}
	}
	return int(t.col[dst]) - 1
}

// widen gives every row one more page, page 0, made with the first.
func (t *Table) widen() {
	if t.cells == nil {
		t.cells = make([]uint16, 1<<t.shift)
		t.pages[pageHash(t.cells)] = 0
	}
	rows := make([]uint16, t.n*(t.stride+1))
	for sw := 0; sw < t.n; sw++ {
		copy(rows[sw*(t.stride+1):], t.rows[sw*t.stride:(sw+1)*t.stride])
	}
	t.rows, t.stride = rows, t.stride+1
}

// page returns page p's cells.
func (t *Table) page(p uint16) []uint16 {
	lo := int(p) << t.shift
	return t.cells[lo : lo+1<<t.shift]
}

// find returns what the cell of (sw, dst) says, the zero entry when the
// table has no such cell. sw must be in range.
func (t *Table) find(sw topology.NodeID, dst flit.EndpointID) entry {
	if int(dst) < len(t.col) {
		if c := int(t.col[dst]) - 1; c >= 0 {
			p := t.rows[int(sw)*t.stride+c>>t.shift]
			return t.dict[t.cells[int(p)<<t.shift|c&(1<<t.shift-1)]]
		}
	}
	return entry{}
}

// point makes the cell of (sw, dst) name dictionary entry i, its row
// naming the page that holds the row's new cells.
func (t *Table) point(sw topology.NodeID, dst flit.EndpointID, i uint16) error {
	c := t.column(dst)
	slot := int(sw)*t.stride + c>>t.shift
	var buf [1 << maxShift]uint16
	next := buf[:copy(buf[:], t.page(t.rows[slot]))]
	k := c & (1<<t.shift - 1)
	if next[k] == i {
		return nil
	}
	next[k] = i
	id, err := t.share(next)
	if err != nil {
		return fmt.Errorf("routing: switch %d dst %d: %w", sw, dst, err)
	}
	t.rows[slot] = id
	return nil
}

// share returns the page holding cells: the one their content hash
// finds, or a new page. A hash two contents share keeps the first, so
// the second is stored once per write (a cost in space, not in
// answers). The page ids are 16 bits: the table is full at 65 536
// pages.
func (t *Table) share(cells []uint16) (uint16, error) {
	h := pageHash(cells)
	id, ok := t.pages[h]
	if ok && slices.Equal(t.page(id), cells) {
		return id, nil
	}
	n := len(t.cells) >> t.shift
	if n > math.MaxUint16 {
		return 0, fmt.Errorf("needs a %dth distinct table page", n+1)
	}
	t.cells = append(t.cells, cells...)
	if !ok {
		t.pages[h] = uint16(n)
	}
	return uint16(n), nil
}

// pageHash is FNV-1a over a page's cells.
func pageHash(cells []uint16) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cells {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// intern returns the dictionary index of the entry naming ports on
// class vc, added on first use. A list some entry already names is
// reused, pool run included; a new one is appended to the pool. The
// dictionary is full at 65 536 entries.
func (t *Table) intern(sw topology.NodeID, dst flit.EndpointID, ports []int, vc uint8) (uint16, error) {
	e := entry{off: uint32(len(t.pool)), n: uint16(len(ports)), vc: vc}
	for i, d := range t.dict {
		if d.n == e.n && slices.Equal(t.pool[d.off:int(d.off)+len(ports)], ports) {
			if d.vc == vc { // the common case, spared the index's hash
				return uint16(i), nil
			}
			e.off = d.off
		}
	}
	i, err := t.entry(sw, dst, e)
	if err == nil && int(e.off) == len(t.pool) {
		t.pool = append(t.pool, ports...)
	}
	return i, err
}

// entry returns e's dictionary index, adding e on first use.
func (t *Table) entry(sw topology.NodeID, dst flit.EndpointID, e entry) (uint16, error) {
	i, ok := t.index[e]
	if !ok {
		if len(t.dict) > math.MaxUint16 {
			return 0, fmt.Errorf("routing: switch %d dst %d needs a %dth distinct table entry", sw, dst, len(t.dict)+1)
		}
		i = uint16(len(t.dict))
		t.dict = append(t.dict, e)
		t.index[e] = i
	}
	return i, nil
}

// Set replaces the candidate ports for (sw, dst), keeping its class.
// The experiments use this to pin specific paths (e.g. to construct the
// paper's two 90%-loaded links). Nothing is written in place, so
// rewriting a cell back and forth grows nothing.
func (t *Table) Set(sw topology.NodeID, dst flit.EndpointID, ports []int) error {
	if int(sw) < 0 || int(sw) >= t.n {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	if len(ports) == 0 {
		return fmt.Errorf("routing: empty port list for switch %d dst %d", sw, dst)
	}
	if len(ports) > math.MaxUint16 {
		return fmt.Errorf("routing: %d candidate ports for switch %d dst %d", len(ports), sw, dst)
	}
	i, err := t.intern(sw, dst, ports, t.find(sw, dst).vc)
	if err != nil {
		return err
	}
	return t.point(sw, dst, i)
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
	if int(sw) < 0 || int(sw) >= t.n {
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
// default is class 0. The builders set the class with the ports; only
// hand-built tables in tests call this.
func (t *Table) SetVC(sw topology.NodeID, dst flit.EndpointID, vc uint8) error {
	if int(sw) < 0 || int(sw) >= t.n {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	e := t.find(sw, dst)
	e.vc = vc
	i, err := t.entry(sw, dst, e)
	if err != nil {
		return err
	}
	return t.point(sw, dst, i)
}

// BuildShortestPath fills a table with all minimal paths: at each
// switch, the candidates for a destination are every output port whose
// link leads one hop closer to the destination's switch, ordered by
// output port index; at the destination's switch the single candidate
// is the sink's local port. Every (reachable switch, sink) pair gets an
// entry.
func BuildShortestPath(topo *topology.Topology) (*Table, error) {
	sinks := topo.Sinks()
	b := newBuilder(topo.NumSwitches(), sinks)
	links := topo.Links()
	// Reverse adjacency for backward BFS from each sink switch.
	radj := make([][]topology.NodeID, topo.NumSwitches())
	for _, l := range links {
		radj[l.To] = append(radj[l.To], l.From)
	}
	var ports []int // scratch: set copies it
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
				if err := b.set(sw, sink.ID, []int{port}, 0); err != nil {
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
			if err := b.set(sw, sink.ID, ports, 0); err != nil {
				return nil, err
			}
		}
	}
	return b.pack()
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
	b := newBuilder(n, sinks)
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
	var ports []int // scratch: set copies it
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
				if err := b.set(sw, sink.ID, []int{port}, 0); err != nil {
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
			var vc uint8
			if classes != nil {
				vc = classes.HopVC(sw, sink.Switch)
			}
			if err := b.set(sw, sink.ID, ports, vc); err != nil {
				return nil, err
			}
		}
	}
	return b.pack()
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
	for sw := topology.NodeID(0); int(sw) < t.n; sw++ {
		for _, dst := range t.ids {
			if vc := t.find(sw, dst).vc; int(vc) >= nv {
				return fmt.Errorf("routing: switch %d routes to endpoint %d on virtual channel %d of %d", sw, dst, vc, nv)
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
