package routing

import (
	"fmt"
	"strings"

	"nocemu/internal/topology"
)

// CheckDeadlockFree verifies the classic Dally/Seitz condition on a
// built route table: wormhole routing is deadlock-free iff the channel
// dependency graph (CDG) — channels as nodes, an edge C1->C2 whenever
// some packet holding C1 can request C2 next — is acyclic. A channel is
// one virtual-channel class of one link, (link, vc): the table's class
// for a hop is part of the channel it occupies, which is what lets a
// dateline scheme cut a ring's cycle. The CDG is built from the table
// itself, restricted to feasible states: for each sink, only (switch,
// arrival-channel) states actually reachable from a source's injection
// point contribute dependencies, so path-diverse tables are not
// penalized for turns no packet can make. Injection ports add no
// dependencies (nothing routes into an injection wire).
//
// On a cycle the error names the channels around it — the platform's
// rejection of e.g. minimal torus routing on a single class.
func CheckDeadlockFree(topo *topology.Topology, t *Table) error {
	links := topo.Links()
	nv := topo.NumVC()
	nCh := len(links) * nv // channel (link, vc) has index link*nv+vc
	if nCh == 0 {
		return nil
	}
	// dep[c1] = set of channels some packet can request while holding c1.
	dep := make([][]int, nCh)
	depSeen := make(map[[2]int]bool)

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
			ports, err := t.Lookup(st.sw, sink.ID)
			if err != nil {
				continue // routing gap; Validate reports it separately
			}
			vc := int(t.VC(st.sw, sink.ID))
			if vc >= nv {
				continue // class out of range; Validate reports it separately
			}
			outs := topo.SwitchOutputs(st.sw)
			for _, p := range ports {
				if p < 0 || p >= len(outs) {
					continue
				}
				oc := outs[p]
				if oc.Link < 0 {
					continue // ejection: the packet leaves the network
				}
				outCh := oc.Link*nv + vc
				if st.inCh >= 0 && !depSeen[[2]int{st.inCh, outCh}] {
					depSeen[[2]int{st.inCh, outCh}] = true
					dep[st.inCh] = append(dep[st.inCh], outCh)
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
		stack := []frame{{ch: c}}
		color[c] = grey
		parent[c] = -1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(dep[f.ch]) {
				color[f.ch] = black
				stack = stack[:len(stack)-1]
				continue
			}
			to := dep[f.ch][f.next]
			f.next++
			switch color[to] {
			case white:
				color[to] = grey
				parent[to] = f.ch
				stack = append(stack, frame{ch: to})
			case grey:
				return cdgCycleError(links, nv, parent, f.ch, to)
			}
		}
	}
	return nil
}

// cdgCycleError renders the dependency cycle closed by the edge
// from->to, walking parents back from `from` to `to`.
func cdgCycleError(links []topology.LinkSpec, nv int, parent []int, from, to int) error {
	cycle := []int{from}
	for cur := from; cur != to; {
		cur = parent[cur]
		cycle = append(cycle, cur)
	}
	// parents run backward; reverse into forward dependency order.
	for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	var b strings.Builder
	for _, c := range cycle {
		l := c / nv
		fmt.Fprintf(&b, "link %d (s%d->s%d) vc%d -> ", l, links[l].From, links[l].To, c%nv)
	}
	fmt.Fprintf(&b, "link %d vc%d", cycle[0]/nv, cycle[0]%nv)
	return fmt.Errorf("routing: channel-dependency cycle (wormhole deadlock possible): %s", b.String())
}
