package routing

import (
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
			for _, next := range r.NextHops(topo, sw, sink.Switch) {
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
