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
	"fmt"

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
type Table struct {
	perSwitch []map[flit.EndpointID][]int
	// vc holds the non-zero classes only (a missing entry is class 0),
	// so single-class tables pay nothing for it.
	vc []map[flit.EndpointID]uint8
}

// NewTable returns an empty table for n switches.
func NewTable(n int) *Table {
	t := &Table{
		perSwitch: make([]map[flit.EndpointID][]int, n),
		vc:        make([]map[flit.EndpointID]uint8, n),
	}
	for i := range t.perSwitch {
		t.perSwitch[i] = make(map[flit.EndpointID][]int)
	}
	return t
}

// NumSwitches returns the number of switches the table covers.
func (t *Table) NumSwitches() int { return len(t.perSwitch) }

// Set replaces the candidate ports for (sw, dst). The experiments use
// this to pin specific paths (e.g. to construct the paper's two
// 90%-loaded links).
func (t *Table) Set(sw topology.NodeID, dst flit.EndpointID, ports []int) error {
	if int(sw) < 0 || int(sw) >= len(t.perSwitch) {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	if len(ports) == 0 {
		return fmt.Errorf("routing: empty port list for switch %d dst %d", sw, dst)
	}
	t.perSwitch[sw][dst] = append([]int(nil), ports...)
	return nil
}

// Lookup returns the candidate output ports at switch sw for packets to
// dst.
func (t *Table) Lookup(sw topology.NodeID, dst flit.EndpointID) ([]int, error) {
	if int(sw) < 0 || int(sw) >= len(t.perSwitch) {
		return nil, fmt.Errorf("routing: switch %d out of range", sw)
	}
	ports, ok := t.perSwitch[sw][dst]
	if !ok {
		return nil, fmt.Errorf("routing: no route at switch %d to endpoint %d", sw, dst)
	}
	return ports, nil
}

// SetVC sets the virtual-channel class of the hop (sw, dst) takes; the
// default is class 0.
func (t *Table) SetVC(sw topology.NodeID, dst flit.EndpointID, vc uint8) error {
	if int(sw) < 0 || int(sw) >= len(t.vc) {
		return fmt.Errorf("routing: switch %d out of range", sw)
	}
	if vc == 0 {
		delete(t.vc[sw], dst)
		return nil
	}
	if t.vc[sw] == nil {
		t.vc[sw] = make(map[flit.EndpointID]uint8)
	}
	t.vc[sw][dst] = vc
	return nil
}

// VC returns the virtual-channel class packets to dst leave switch sw
// on. sw must be a switch of the table.
func (t *Table) VC(sw topology.NodeID, dst flit.EndpointID) uint8 { return t.vc[sw][dst] }

// Destinations returns the destinations routable from switch sw.
func (t *Table) Destinations(sw topology.NodeID) []flit.EndpointID {
	var out []flit.EndpointID
	for d := range t.perSwitch[sw] {
		out = append(out, d)
	}
	return out
}

// BuildShortestPath fills a table with all minimal paths: at each
// switch, the candidates for a destination are every output port whose
// link leads one hop closer to the destination's switch, ordered by
// output port index; at the destination's switch the single candidate
// is the sink's local port. Every (reachable switch, sink) pair gets an
// entry.
func BuildShortestPath(topo *topology.Topology) (*Table, error) {
	t := NewTable(topo.NumSwitches())
	// Reverse adjacency for backward BFS from each sink switch.
	radj := make([][]topology.NodeID, topo.NumSwitches())
	for _, l := range topo.Links() {
		radj[l.To] = append(radj[l.To], l.From)
	}
	for _, sink := range topo.Sinks() {
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
			var ports []int
			links := topo.Links()
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
	t := NewTable(n)
	links := topo.Links()
	classes, _ := r.(topology.VCRouter)
	portTo := func(sw, next topology.NodeID) (int, bool) {
		for p, oc := range topo.SwitchOutputs(sw) {
			if oc.Link >= 0 && links[oc.Link].To == next {
				return p, true
			}
		}
		return 0, false
	}
	for _, sink := range topo.Sinks() {
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
			ports := make([]int, 0, len(hops))
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
func Validate(topo *topology.Topology, t *Table) error {
	maxHops := topo.NumSwitches() + 1
	links := topo.Links()
	nv := topo.NumVC()
	for sw, classes := range t.vc {
		for dst, vc := range classes {
			if int(vc) >= nv {
				return fmt.Errorf("routing: switch %d routes to endpoint %d on virtual channel %d of %d", sw, dst, vc, nv)
			}
		}
	}
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
