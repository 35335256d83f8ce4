package routing

import (
	"fmt"
	"slices"
	"strconv"

	"nocemu/internal/flit"
	"nocemu/internal/topology"
)

// VC returns the virtual-channel class packets to dst leave switch sw
// on. sw must be a switch of the table.
func (t *Table) VC(sw topology.NodeID, dst flit.EndpointID) uint8 { return t.find(sw, dst).vc }

// Destinations returns the destinations routable from switch sw, in
// ascending id order.
func (t *Table) Destinations(sw topology.NodeID) []flit.EndpointID {
	var out []flit.EndpointID
	for _, dst := range t.ids {
		if t.find(sw, dst).n > 0 {
			out = append(out, dst)
		}
	}
	slices.Sort(out)
	return out
}

// cell returns the dictionary index the cell of (sw, dst) holds.
func (t *Table) cell(sw topology.NodeID, dst flit.EndpointID) uint16 {
	c := int(t.col[dst]) - 1
	return t.page(t.rows[int(sw)*t.stride+c>>t.shift])[c&(1<<t.shift-1)]
}

// footprint returns the bytes of the table's rows of page ids and of
// its pages.
func (t *Table) footprint() int { return 2*len(t.rows) + 2*len(t.cells) }

// flatTable is the layout the paged table replaced, kept as the
// reference its answers are checked against: a row per switch, a cell
// per destination, each cell its candidate ports and class. Equal lists
// share one slice, so a 1 024 × 1 024 reference stays a few megabytes.
type flatTable struct {
	n     int
	cells map[flit.EndpointID][]flatCell // per destination, a cell per switch
	lists map[string][]int
	key   []byte
}

type flatCell struct {
	ports []int // nil: no route
	vc    uint8
}

func newFlatTable(n int) *flatTable {
	return &flatTable{n: n, cells: map[flit.EndpointID][]flatCell{}, lists: map[string][]int{}}
}

// set replaces the ports of (sw, dst), keeping its class, as Set does.
func (f *flatTable) set(sw topology.NodeID, dst flit.EndpointID, ports []int) {
	f.key = f.key[:0]
	for _, p := range ports {
		f.key = strconv.AppendInt(append(f.key, ','), int64(p), 10)
	}
	list, ok := f.lists[string(f.key)]
	if !ok {
		list = slices.Clone(ports)
		f.lists[string(f.key)] = list
	}
	f.row(dst)[sw].ports = list
}

// setVC sets the class of (sw, dst), as SetVC does.
func (f *flatTable) setVC(sw topology.NodeID, dst flit.EndpointID, vc uint8) { f.row(dst)[sw].vc = vc }

func (f *flatTable) row(dst flit.EndpointID) []flatCell {
	r, ok := f.cells[dst]
	if !ok {
		r = make([]flatCell, f.n)
		f.cells[dst] = r
	}
	return r
}

// route is Route over the flat cells: ok is false where Route errs.
func (f *flatTable) route(sw topology.NodeID, dst flit.EndpointID) ([]int, uint8, bool) {
	c := f.cells[dst]
	if c == nil || c[sw].ports == nil {
		return nil, 0, false
	}
	return c[sw].ports, c[sw].vc, true
}

// localPort returns the output port of sw that ejects to sink.
func localPort(topo *topology.Topology, sw topology.NodeID, sink flit.EndpointID) int {
	for p, oc := range topo.SwitchOutputs(sw) {
		if oc.Link == -1 && oc.Endpoint == sink {
			return p
		}
	}
	return -1
}

// flatShortestPath is BuildShortestPath into a flat table: every output
// port one hop closer to the sink's switch, by a search of the outputs.
func flatShortestPath(topo *topology.Topology) *flatTable {
	n := topo.NumSwitches()
	f := newFlatTable(n)
	links := topo.Links()
	radj := make([][]topology.NodeID, n)
	for _, l := range links {
		radj[l.To] = append(radj[l.To], l.From)
	}
	for _, sink := range topo.Sinks() {
		dist := bfsDistances(radj, sink.Switch, n)
		for sw := topology.NodeID(0); int(sw) < n; sw++ {
			if sw == sink.Switch {
				f.set(sw, sink.ID, []int{localPort(topo, sw, sink.ID)})
				continue
			}
			var ports []int
			for p, oc := range topo.SwitchOutputs(sw) {
				if oc.Link >= 0 && dist[sw] > 0 && dist[links[oc.Link].To] == dist[sw]-1 {
					ports = append(ports, p)
				}
			}
			if ports != nil {
				f.set(sw, sink.ID, ports)
			}
		}
	}
	return f
}

// flatFromRouter is BuildFromRouter into a flat table: each hop the
// router names resolved to the first output port reaching it, by a scan
// of the outputs, and its class where the router gives one.
func flatFromRouter(topo *topology.Topology, r topology.Router) *flatTable {
	n := topo.NumSwitches()
	f := newFlatTable(n)
	links := topo.Links()
	classes, _ := r.(topology.VCRouter)
	for _, sink := range topo.Sinks() {
		for sw := topology.NodeID(0); int(sw) < n; sw++ {
			if sw == sink.Switch {
				f.set(sw, sink.ID, []int{localPort(topo, sw, sink.ID)})
				continue
			}
			var ports []int
			for _, next := range r.NextHops(topo, sw, sink.Switch, nil) {
				for p, oc := range topo.SwitchOutputs(sw) {
					if oc.Link >= 0 && links[oc.Link].To == next {
						ports = append(ports, p)
						break
					}
				}
			}
			if ports == nil {
				continue
			}
			f.set(sw, sink.ID, ports)
			if classes != nil {
				f.setVC(sw, sink.ID, classes.HopVC(sw, sink.Switch))
			}
		}
	}
	return f
}

// validateRef is Validate as it was before its walk went sink by sink,
// kept as the reference the rewrite is held to. It walks every (source,
// sink) pair following first-candidate routing and confirms the path
// terminates at the sink within a hop budget and stays on virtual
// channels the topology has.
//
// First-candidate routing toward a sink depends on the switch alone, so
// a walk stops at the first switch an earlier walk already took to that
// sink: every pair is still checked, in the same order, at a cost of
// one step per (switch, sink) instead of a full path per pair.
func validateRef(topo *topology.Topology, t *Table) error {
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

// checkDeadlockFreeRef is CheckDeadlockFree as it was before it searched
// switches instead of channel states, kept as the reference the rewrite
// is held to. For each sink it searches the (switch, arrival-channel)
// states reachable from a source's injection point, recording each
// state's dependencies in the order met, then groups and deduplicates
// them per channel and searches the graph for a cycle.
func checkDeadlockFreeRef(topo *topology.Topology, t *Table) error {
	links := topo.Links()
	nv := topo.NumVC()
	nCh := len(links) * nv // channel (link, vc) has index link*nv+vc
	if nCh == 0 {
		return nil
	}
	// Every dependency the walk meets, in the order met; they are grouped
	// and deduplicated below. A channel's dependencies are a function of
	// the table entry its downstream switch applies, so a state whose
	// entry is among the last few its channel recorded records nothing:
	// that drops most repeats (a mesh channel sees one entry per
	// direction, a run of sinks at a time) before they take memory.
	type dep struct{ from, to int32 }
	var found []dep
	recent := make([][4]entry, nCh) // most recent first

	// Feasible-state BFS per sink. State = (switch, inCh); inCh -1 means
	// the packet is at its injection switch. A channel determines its
	// downstream switch, so in-network states are marked by channel alone
	// and injection states by switch, behind the channels. The marks and
	// the queue are shared by all sinks: a mark counts when it holds the
	// current sink's stamp.
	stateSeen := make([]int, nCh+topo.NumSwitches())
	stateKey := func(sw topology.NodeID, inCh int) int {
		if inCh < 0 {
			return nCh + int(sw)
		}
		return inCh
	}
	type state struct {
		sw   topology.NodeID
		inCh int
	}
	var queue []state
	srcs := topo.Sources()
	for i, sink := range topo.Sinks() {
		stamp := i + 1
		queue = queue[:0]
		for _, src := range srcs {
			k := stateKey(src.Switch, -1)
			if stateSeen[k] != stamp {
				stateSeen[k] = stamp
				queue = append(queue, state{src.Switch, -1})
			}
		}
		for head := 0; head < len(queue); head++ {
			st := queue[head]
			if int(st.sw) >= t.n {
				continue // Validate reports the table's size separately
			}
			e := t.find(st.sw, sink.ID) // ports and class, one cell read
			if e.n == 0 {
				continue // routing gap; Validate reports it separately
			}
			vc := int(e.vc)
			if vc >= nv {
				continue // class out of range; Validate reports it separately
			}
			record := st.inCh >= 0 && !slices.Contains(recent[st.inCh][:], e)
			if record {
				r := &recent[st.inCh]
				copy(r[1:], r[:])
				r[0] = e
			}
			outs := topo.SwitchOutputs(st.sw)
			for _, p := range t.run(e) {
				if p < 0 || p >= len(outs) {
					continue
				}
				oc := outs[p]
				if oc.Link < 0 {
					continue // ejection: the packet leaves the network
				}
				outCh := oc.Link*nv + vc
				if record {
					found = append(found, dep{int32(st.inCh), int32(outCh)})
				}
				next := links[oc.Link].To
				k := stateKey(next, outCh)
				if stateSeen[k] != stamp {
					stateSeen[k] = stamp
					queue = append(queue, state{next, outCh})
				}
			}
		}
	}

	// The dependency graph: the channels some packet can request while
	// holding c are to[off[c]:off[c+1]]. A stable counting sort by
	// holding channel keeps each channel's dependencies in the order the
	// walk first met them, and a stamp per requested channel drops the
	// repeats. The lists, and so the cycle the search below names, are
	// those of a set consulted at every dependency, without its hashing.
	off := make([]int32, nCh+1)
	for _, d := range found {
		off[d.from+1]++
	}
	for c := 0; c < nCh; c++ {
		off[c+1] += off[c]
	}
	to := make([]int32, len(found))
	cursor := append([]int32(nil), off[:nCh]...)
	for _, d := range found {
		to[cursor[d.from]] = d.to
		cursor[d.from]++
	}
	found = nil
	stamp := cursor // reused: stamp[x] == c+1 once c's list holds x
	clear(stamp)
	n := int32(0)
	for c := 0; c < nCh; c++ {
		start, end := off[c], off[c+1]
		off[c] = n
		for _, x := range to[start:end] {
			if stamp[x] != int32(c+1) {
				stamp[x] = int32(c + 1)
				to[n] = x
				n++
			}
		}
	}
	off[nCh] = n

	// Cycle detection over the dependency graph (iterative DFS with
	// white/grey/black coloring; the grey stack reconstructs the cycle).
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, nCh)
	parent := make([]int, nCh)
	for c := 0; c < nCh; c++ {
		if color[c] != white {
			continue
		}
		type frame struct {
			ch   int
			next int
		}
		stack := []frame{{ch: c, next: int(off[c])}}
		color[c] = grey
		parent[c] = -1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= int(off[f.ch+1]) {
				color[f.ch] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := int(to[f.next])
			f.next++
			switch color[next] {
			case white:
				color[next] = grey
				parent[next] = f.ch
				stack = append(stack, frame{ch: next, next: int(off[next])})
			case grey:
				return cdgCycleError(links, nv, parent, f.ch, next)
			}
		}
	}
	return nil
}
