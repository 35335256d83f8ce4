package routing

import (
	"fmt"
	"slices"
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
