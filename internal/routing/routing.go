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
//
// Most cells name one port: memo maps (port, class) to the dictionary
// index of that entry plus one, so such a cell is interned once per
// distinct entry rather than once per cell. A class at or above nv goes
// through intern (Validate rejects it later).
type builder struct {
	t     *Table
	cells []uint16
	w     int
	memo  []uint32
	nv    int
	ports []int // scratch for a one-port list
}

// newBuilder returns a builder for topo's switches sized for sinks. A
// row shorter than a 64-cell page gets pages of its width rounded up to
// a power of two, so a small table is not padded to 64 columns.
func newBuilder(topo *topology.Topology, sinks []topology.EndpointSpec) *builder {
	n := topo.NumSwitches()
	t := NewTable(n)
	t.shift = 0 // before the first page
	for t.shift < maxShift && 1<<t.shift < len(sinks) {
		t.shift++
	}
	for _, sink := range sinks {
		t.column(sink.ID)
	}
	radix := 0
	for sw := topology.NodeID(0); int(sw) < n; sw++ {
		radix = max(radix, len(topo.SwitchOutputs(sw)))
	}
	nv := topo.NumVC()
	w := t.stride << t.shift
	return &builder{t: t, cells: make([]uint16, n*w), w: w, memo: make([]uint32, radix*nv), nv: nv}
}

// set makes the cell of (sw, column c) name ports on class vc; c is the
// column of sink dst.
func (b *builder) set(sw topology.NodeID, c int, dst flit.EndpointID, ports []int, vc uint8) error {
	i, err := b.t.intern(sw, dst, ports, vc)
	b.cells[int(sw)*b.w+c] = i
	return err
}

// setOne makes the cell of (sw, column c) name port alone on class vc,
// through the memo.
func (b *builder) setOne(sw topology.NodeID, c int, dst flit.EndpointID, port int, vc uint8) error {
	k := port*b.nv + int(vc)
	if int(vc) < b.nv && b.memo[k] != 0 {
		b.cells[int(sw)*b.w+c] = uint16(b.memo[k] - 1)
		return nil
	}
	b.ports = append(b.ports[:0], port)
	if err := b.set(sw, c, dst, b.ports, vc); err != nil {
		return err
	}
	if int(vc) < b.nv {
		b.memo[k] = uint32(b.cells[int(sw)*b.w+c]) + 1
	}
	return nil
}

// ejectPort returns the output port of sw that ejects to sink.
func ejectPort(topo *topology.Topology, sw topology.NodeID, sink flit.EndpointID) (int, error) {
	for p, oc := range topo.SwitchOutputs(sw) {
		if oc.Link == -1 && oc.Endpoint == sink {
			return p, nil
		}
	}
	return 0, fmt.Errorf("routing: sink %d has no local port on switch %d", sink, sw)
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
			return t.dict[t.at(sw, c)]
		}
	}
	return entry{}
}

// at returns the dictionary index the cell of (sw, column c) holds.
func (t *Table) at(sw topology.NodeID, c int) uint16 {
	p := t.rows[int(sw)*t.stride+c>>t.shift]
	return t.cells[int(p)<<t.shift|c&(1<<t.shift-1)]
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
	b := newBuilder(topo, sinks)
	links := topo.Links()
	// Reverse adjacency for backward BFS from each sink switch.
	radj := make([][]topology.NodeID, topo.NumSwitches())
	for _, l := range links {
		radj[l.To] = append(radj[l.To], l.From)
	}
	var ports []int // scratch: set copies it
	for _, sink := range sinks {
		c := int(b.t.col[sink.ID]) - 1
		dist := bfsDistances(radj, sink.Switch, topo.NumSwitches())
		for sw := topology.NodeID(0); int(sw) < topo.NumSwitches(); sw++ {
			if sw == sink.Switch {
				port, err := ejectPort(topo, sw, sink.ID)
				if err == nil {
					err = b.setOne(sw, c, sink.ID, port, 0)
				}
				if err != nil {
					return nil, err
				}
				continue
			}
			d := dist[sw]
			if d < 0 {
				continue // sink unreachable from here
			}
			ports = ports[:0]
			for p, oc := range topo.SwitchOutputs(sw) {
				if oc.Link < 0 {
					continue
				}
				next := links[oc.Link].To
				if dist[next] == d-1 {
					ports = append(ports, p)
				}
			}
			var err error
			switch len(ports) {
			case 0:
				err = fmt.Errorf("routing: switch %d at distance %d has no descending port to sink %d", sw, d, sink.ID)
			case 1:
				err = b.setOne(sw, c, sink.ID, ports[0], 0)
			default:
				err = b.set(sw, c, sink.ID, ports, 0)
			}
			if err != nil {
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
//
// The table is filled sink by sink, because a router may keep a memo
// per destination (topology.UpDownRouter does), with one hop buffer and
// one port buffer for the whole build.
func BuildFromRouter(topo *topology.Topology, r topology.Router) (*Table, error) {
	n := topo.NumSwitches()
	sinks := topo.Sinks()
	b := newBuilder(topo, sinks)
	links := topo.Links()
	classes, _ := r.(topology.VCRouter)
	// The output port toward each neighbour, built once: switch sw's
	// neighbours are nbrs[nbrOff[sw]:nbrOff[sw+1]], in ascending order.
	// Links are unique per ordered switch pair, so a neighbour has one
	// port, and resolving a hop is a binary search over the switch's
	// radix, not a scan of its outputs per (switch, sink).
	nbrs := make([]neighbour, 0, len(links))
	nbrOff := make([]int, n+1)
	for sw := topology.NodeID(0); int(sw) < n; sw++ {
		start := len(nbrs)
		for p, oc := range topo.SwitchOutputs(sw) {
			if oc.Link >= 0 {
				nbrs = append(nbrs, neighbour{links[oc.Link].To, p})
			}
		}
		slices.SortFunc(nbrs[start:], func(a, b neighbour) int { return cmp.Compare(a.sw, b.sw) })
		nbrOff[sw+1] = len(nbrs)
	}
	// last[sw] is the one-hop cell sw was given last: a router names the
	// same hop for runs of sinks, and such a cell is a copy.
	type lastHop struct {
		next topology.NodeID
		vc   uint8
		i    uint16
	}
	last := make([]lastHop, n)
	for i := range last {
		last[i].next = -1
	}
	var hops []topology.NodeID
	var ports []int
	for _, sink := range sinks {
		c := int(b.t.col[sink.ID]) - 1
		for sw := topology.NodeID(0); int(sw) < n; sw++ {
			if sw == sink.Switch {
				port, err := ejectPort(topo, sw, sink.ID)
				if err == nil {
					err = b.setOne(sw, c, sink.ID, port, 0)
				}
				if err != nil {
					return nil, err
				}
				continue
			}
			hops = r.NextHops(topo, sw, sink.Switch, hops[:0])
			if len(hops) == 0 {
				continue
			}
			var vc uint8
			if classes != nil {
				vc = classes.HopVC(sw, sink.Switch)
			}
			at := int(sw)*b.w + c
			if l := last[sw]; len(hops) == 1 && l.next == hops[0] && l.vc == vc {
				b.cells[at] = l.i
				continue
			}
			ports = ports[:0]
			for _, next := range hops {
				port, ok := hopPort(nbrs[nbrOff[sw]:nbrOff[sw+1]], next)
				if !ok {
					return nil, fmt.Errorf("routing: %s router wants hop %d->%d but no link exists", r.Name(), sw, next)
				}
				ports = append(ports, port)
			}
			if len(ports) > 1 {
				if err := b.set(sw, c, sink.ID, ports, vc); err != nil {
					return nil, err
				}
				continue
			}
			if err := b.setOne(sw, c, sink.ID, ports[0], vc); err != nil {
				return nil, err
			}
			last[sw] = lastHop{hops[0], vc, b.cells[at]}
		}
	}
	return b.pack()
}

// neighbour is a switch one link away and the output port toward it.
type neighbour struct {
	sw   topology.NodeID
	port int
}

// hopPort returns the port toward switch next among ns, a switch's
// neighbours in ascending order.
func hopPort(ns []neighbour, next topology.NodeID) (int, bool) {
	lo, hi := 0, len(ns)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ns[m].sw < next {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ns) && ns[lo].sw == next {
		return ns[lo].port, true
	}
	return 0, false
}

// Validate walks every (source, sink) pair following first-candidate
// routing and confirms the path terminates at the sink within a hop
// budget and stays on virtual channels the topology has, catching
// routing loops, dead ends and out-of-range classes at
// platform-compilation time. The first failure, in the order classes
// switch by switch then pairs source by source, is the error.
//
// First-candidate routing toward a sink depends on the switch alone, so
// every switch either delivers to a sink or fails to, whichever source
// it is reached from. Validate walks sink by sink: a walk stops at the
// first switch an earlier walk to the sink already settled, and a
// stamp per switch marks the settled and the current path, at a cost of
// one step per (switch, sink). Only when some pair fails is the first
// failing pair walked again in full, hop by hop, for its message.
func Validate(topo *topology.Topology, t *Table) error {
	if err := t.checkClasses(topo.NumVC()); err != nil {
		return err
	}
	srcs, sinks := topo.Sources(), topo.Sinks()
	links := topo.Links()
	// For the sink walked: mark[sw] == stamp while sw is on the current
	// path, stamp+1 once it delivers and stamp+2 once it fails.
	mark := make([]uint32, topo.NumSwitches())
	var path []topology.NodeID
	badSrc, badSink := len(srcs), 0 // the first failing pair
	var stamp uint32
	for k, sink := range sinks {
		stamp += 3
		good, bad := stamp+1, stamp+2
		c := -1
		if int(sink.ID) < len(t.col) {
			c = int(t.col[sink.ID]) - 1
		}
		for i := 0; i < badSrc; i++ {
			sw := srcs[i].Switch
			path = path[:0]
			verdict := bad
			for {
				if m := mark[sw]; m == good || m == bad {
					verdict = m
					break
				} else if m == stamp {
					break // a loop
				}
				mark[sw] = stamp
				path = append(path, sw)
				if int(sw) >= t.n || c < 0 {
					break
				}
				e := t.dict[t.at(sw, c)]
				if e.n == 0 {
					break
				}
				outs := topo.SwitchOutputs(sw)
				p := t.pool[e.off]
				if p < 0 || p >= len(outs) {
					break
				}
				if oc := outs[p]; oc.Link >= 0 {
					sw = links[oc.Link].To
					continue
				} else if e.vc == 0 && oc.Endpoint == sink.ID {
					verdict = good
				}
				break
			}
			for _, sw := range path {
				mark[sw] = verdict
			}
			if verdict == bad {
				badSrc, badSink = i, k
			}
		}
	}
	if badSrc < len(srcs) {
		return walk(topo, t, srcs[badSrc], sinks[badSink])
	}
	return nil
}

// checkClasses returns the first cell, switch by switch and column by
// column, whose class is not below nv. Only a page holding such a cell
// is read cell by cell, once, and none is when no dictionary entry has
// such a class.
func (t *Table) checkClasses(nv int) error {
	if !slices.ContainsFunc(t.dict, func(e entry) bool { return int(e.vc) >= nv }) {
		return nil
	}
	// checked[p]: 1 once page p is known clean, 2 once known not to be.
	checked := make([]uint8, len(t.cells)>>t.shift)
	for sw := 0; sw < t.n; sw++ {
		for slot, p := range t.rows[sw*t.stride : (sw+1)*t.stride] {
			if checked[p] == 0 {
				checked[p] = 1
				if slices.ContainsFunc(t.page(p), func(i uint16) bool { return int(t.dict[i].vc) >= nv }) {
					checked[p] = 2
				}
			}
			if checked[p] == 1 {
				continue
			}
			for k, i := range t.page(p) {
				c := slot<<t.shift | k
				if vc := t.dict[i].vc; c < len(t.ids) && int(vc) >= nv {
					return fmt.Errorf("routing: switch %d routes to endpoint %d on virtual channel %d of %d", sw, t.ids[c], vc, nv)
				}
			}
		}
	}
	return nil
}

// walk follows the first candidates from src toward sink hop by hop,
// nothing remembered, and returns what stops the path: the message a
// failing pair gets, or nil once the path delivers.
func walk(topo *topology.Topology, t *Table, src, sink topology.EndpointSpec) error {
	maxHops := topo.NumSwitches() + 1
	links := topo.Links()
	sw := src.Switch
	for hop := 0; ; hop++ {
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
		oc := outs[p]
		if oc.Link == -1 {
			if vc != 0 {
				return fmt.Errorf("routing: switch %d ejects to endpoint %d on virtual channel %d (ejection wires carry 0 only)", sw, sink.ID, vc)
			}
			if oc.Endpoint != sink.ID {
				return fmt.Errorf("routing: path %d->%d ejects at wrong endpoint %d", src.ID, sink.ID, oc.Endpoint)
			}
			return nil
		}
		sw = links[oc.Link].To
	}
}
