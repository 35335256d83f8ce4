package routing

import (
	"slices"

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
	for c, i := range t.rows[sw] {
		if t.dict[i].n > 0 {
			out = append(out, t.ids[c])
		}
	}
	slices.Sort(out)
	return out
}
