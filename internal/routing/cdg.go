package routing

import (
	"fmt"
	"slices"
	"strings"

	"nocemu/internal/flit"
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
//
// A channel's dependencies are a function of the entry its downstream
// switch applies for the sink, and a channel (l, vc) is reachable for a
// sink exactly when the switch l leaves is and that switch's entry for
// the sink names l on class vc. So the search is over switches, one
// step per (reachable switch, sink), and none at all when every switch
// with an outgoing link hosts a source, as on the generators' platforms:
// then every such switch is reachable for every sink. Each channel
// keeps the dictionary indices of the entries it met, in sink order,
// each once; its dependencies are their candidates in that order, each
// channel once, which is the list a search of (switch, arrival-channel)
// states records, so the cycle named is the same.
func CheckDeadlockFree(topo *topology.Topology, t *Table) error {
	links := topo.Links()
	nv := topo.NumVC()
	nCh := len(links) * nv // channel (link, vc) has index link*nv+vc
	if nCh == 0 {
		return nil
	}
	// seen[sw] == stamp once sw is reachable for the sink searched;
	// stamp 1 marks the source switches, reach[:nsrc].
	seen := make([]uint32, topo.NumSwitches())
	var reach []topology.NodeID
	for _, src := range topo.Sources() {
		if seen[src.Switch] == 0 {
			seen[src.Switch] = 1
			reach = append(reach, src.Switch)
		}
	}
	nsrc := len(reach)
	// When every switch with an outgoing link hosts a source, the
	// sources reach every channel there is to reach, for every sink.
	everywhere := true
	for _, l := range links {
		everywhere = everywhere && seen[l.From] == 1
	}

	w := &depWalk{t: t, topo: topo, links: links, nv: nv,
		head: make([]int32, nCh), tail: make([]int32, nCh), recent: make([]uint64, nCh)}
	for i := range w.head {
		w.head[i] = -1
	}
	sinks := topo.Sinks()
	if everywhere && slices.EqualFunc(t.ids[:min(len(sinks), len(t.ids))], sinks, func(id flit.EndpointID, s topology.EndpointSpec) bool { return id == s.ID }) {
		// Column k is sinks[k], as the builders lay a table out, so the
		// walk goes switch by switch, a row's cells in sink order. A
		// page of columns whose cells at the switch and at each of its
		// neighbours the switch already met together, at an earlier
		// page, lists nothing new: it is skipped.
		var keys, key []uint16 // keys: the pages met at sw, back to back
		for _, sw := range reach {
			if int(sw) >= t.n {
				continue
			}
			keys = keys[:0]
			for slot := 0; slot<<t.shift < len(sinks); slot++ {
				key = append(key[:0], t.rows[int(sw)*t.stride+slot])
				for _, oc := range topo.SwitchOutputs(sw) {
					if oc.Link < 0 {
						continue
					}
					if next := int(links[oc.Link].To); next < t.n {
						key = append(key, t.rows[next*t.stride+slot])
					}
				}
				if hasKey(keys, key) {
					continue
				}
				keys = append(keys, key...)
				for c := slot << t.shift; c < min((slot+1)<<t.shift, len(sinks)); c++ {
					w.cell(sw, c)
				}
			}
		}
	} else {
		for k, sink := range sinks {
			if int(sink.ID) >= len(t.col) || t.col[sink.ID] == 0 {
				continue // no cell routes to it; Validate reports that
			}
			c := int(t.col[sink.ID]) - 1
			if !everywhere {
				stamp := uint32(k + 2)
				reach = reach[:nsrc]
				for _, sw := range reach {
					seen[sw] = stamp
				}
				for i := 0; i < len(reach); i++ {
					sw := reach[i]
					if int(sw) >= t.n {
						continue // Validate reports the table's size separately
					}
					e := t.dict[t.at(sw, c)]
					if !w.valid(e) {
						continue // a gap or a bad class; Validate reports it
					}
					outs := topo.SwitchOutputs(sw)
					for _, p := range t.run(e) {
						if p >= 0 && p < len(outs) && outs[p].Link >= 0 {
							if next := links[outs[p].Link].To; seen[next] != stamp {
								seen[next] = stamp
								reach = append(reach, next)
							}
						}
					}
				}
			}
			for _, sw := range reach {
				w.cell(sw, c)
			}
		}
	}

	// The dependency graph: the channels some packet can request while
	// holding c are to[off[c]:off[c+1]], the candidates of c's entries
	// in met order, each entry once and each channel once (a stamp per
	// entry and one per requested channel).
	off := make([]int32, nCh+1)
	var to []int32
	listed := make([]int32, len(t.dict)) // listed[d] == c+1 once c's entries held d
	stamp := w.tail                      // reused: stamp[x] == c+1 once c's list holds x
	clear(stamp)
	for c := 0; c < nCh; c++ {
		off[c] = int32(len(to))
		outs := topo.SwitchOutputs(links[c/nv].To)
		for r := w.head[c]; r >= 0; r = w.met[r].next {
			d := w.met[r].d
			if listed[d] == int32(c+1) {
				continue
			}
			listed[d] = int32(c + 1)
			e := t.dict[d]
			for _, p := range t.run(e) {
				if p < 0 || p >= len(outs) || outs[p].Link < 0 {
					continue
				}
				if x := int32(outs[p].Link*nv + int(e.vc)); stamp[x] != int32(c+1) {
					stamp[x] = int32(c + 1)
					to = append(to, x)
				}
			}
		}
	}
	off[nCh] = int32(len(to))

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

// hasKey reports whether key is one of keys, keys of its length stored
// back to back.
func hasKey(keys, key []uint16) bool {
	for i := 0; i < len(keys); i += len(key) {
		if slices.Equal(keys[i:i+len(key)], key) {
			return true
		}
	}
	return false
}

// depWalk collects a channel-dependency graph's raw lists: per channel
// the dictionary indices of the entries its downstream switch applies,
// as met[head[c]], then met[.next], ... An entry is listed again only
// when it is not among the four the channel listed last (recent[c], 16
// bits each, the latest lowest; index 0, no route, is never listed),
// which drops nearly every repeat before it takes memory; the lists are
// deduplicated exactly when the graph is laid out.
type depWalk struct {
	t          *Table
	topo       *topology.Topology
	links      []topology.LinkSpec
	nv         int
	met        []use
	head, tail []int32
	recent     []uint64
}

// use is one entry in a channel's list and the next one's index in met.
type use struct {
	d    uint16
	next int32
}

// valid reports whether e routes, on a class the topology has.
func (w *depWalk) valid(e entry) bool { return e.n > 0 && int(e.vc) < w.nv }

// cell lists what the cell of (sw, column c) adds, sw being reachable
// for the column's sink: each candidate link's channel meets the entry
// the link's downstream switch applies for that sink. Gaps, bad classes
// and bad ports add nothing; Validate reports them.
func (w *depWalk) cell(sw topology.NodeID, c int) {
	t := w.t
	if int(sw) >= t.n {
		return
	}
	e := t.dict[t.at(sw, c)]
	if !w.valid(e) {
		return
	}
	outs := w.topo.SwitchOutputs(sw)
	for _, p := range t.run(e) {
		if p < 0 || p >= len(outs) || outs[p].Link < 0 {
			continue // out of range, or ejection: the packet leaves
		}
		l := outs[p].Link
		next := w.links[l].To
		if int(next) >= t.n {
			continue
		}
		ch, d := l*w.nv+int(e.vc), t.at(next, c)
		if r := w.recent[ch]; uint16(r) == d || uint16(r>>16) == d || uint16(r>>32) == d || uint16(r>>48) == d || !w.valid(t.dict[d]) {
			continue
		}
		w.recent[ch] = w.recent[ch]<<16 | uint64(d)
		w.met = append(w.met, use{d, -1})
		if i := int32(len(w.met) - 1); w.head[ch] < 0 {
			w.head[ch] = i
		} else {
			w.met[w.tail[ch]].next = i
		}
		w.tail[ch] = int32(len(w.met) - 1)
	}
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
