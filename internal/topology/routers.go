package topology

// Router is a topology-specific routing recipe. Generators attach one
// to the topologies they build (SetRouter); routing.BuildTable lowers
// it into per-switch route tables by asking, for every (switch,
// destination-switch) pair, which neighbor switches are legal next
// hops. Appending no hop for a pair means the router has no opinion
// there and the table simply omits the entry (routing.Validate catches
// the omission if a packet would actually need it).
//
// The interface deliberately speaks in switches, not ports: the port
// mapping is owned by routing.BuildFromRouter, which resolves each
// next-hop switch to the first matching output port in canonical
// SwitchOutputs order. That makes route tables a pure function of
// (topology, router) and keeps generators free of port-index
// bookkeeping.
type Router interface {
	// Name identifies the routing scheme ("xy", "updown", ...); the
	// platform layer uses it to honor explicit Config.Routing requests.
	Name() string
	// NextHops appends the legal next-hop switches for a packet at
	// switch `at` destined for an endpoint on switch `dst` to hops and
	// returns the result, as append does: a table build asks once per
	// (switch, sink) and reuses one buffer. It is not called with
	// at == dst (delivery is local).
	NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID
}

// VCRouter is a Router that also classifies its hops: HopVC names the
// virtual channel a packet at switch `at` destined for an endpoint on
// switch `dst` travels on for its next hop. The class is static, so
// the route table holds it beside the ports; it must stay below the
// topology's NumVC. Like NextHops it is not called with at == dst.
type VCRouter interface {
	Router
	HopVC(at, dst NodeID) uint8
}

// XYRouter is dimension-ordered X-then-Y routing on a W-wide grid
// numbered row-major (switch = y*W + x). It deliberately ignores any
// wraparound links a torus adds: packets always travel the mesh
// interior, which keeps the channel-dependency graph acyclic (each
// dimension is traversed monotonically) at the cost of longer torus
// paths. This matches the historical BuildXY tables byte for byte.
type XYRouter struct {
	// W is the grid width.
	W int
}

// Name implements Router.
func (r XYRouter) Name() string { return "xy" }

// NextHops implements Router.
func (r XYRouter) NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID {
	x, y := gridXY(at, r.W)
	dx, dy := gridXY(dst, r.W)
	var next NodeID
	switch {
	case x < dx:
		next = at + 1
	case x > dx:
		next = at - 1
	case y < dy:
		next = at + NodeID(r.W)
	default:
		next = at - NodeID(r.W)
	}
	return append(hops, next)
}

// gridXY returns switch sw's column and row on a w-wide grid numbered
// row-major, with one 32-bit division (a table build asks for two per
// (switch, sink) pair).
func gridXY(sw NodeID, w int) (x, y int) {
	y = int(uint32(sw) / uint32(w))
	return int(sw) - y*w, y
}

// TorusMinimalRouter is wrap-aware dimension-ordered routing on a
// W×H torus: each dimension independently picks the shorter way
// around the ring (ties go the positive direction). On a single
// virtual channel that closes a cycle of channel dependencies around
// each ring, so the deadlock checker rejects the platform unless
// AllowDeadlock is set. With Dateline set (the torus has at least two
// virtual channels) every hop carries the static dateline class — 0
// while the remaining path in the hop's dimension still crosses the
// wrap link, 1 once it does not — which cuts each ring's cycle:
// class-0 channels end at the wrap link, class-1 channels never use it.
type TorusMinimalRouter struct {
	// W, H are the torus dimensions.
	W, H int
	// Dateline emits the two dateline classes instead of class 0 only.
	Dateline bool
}

// Name implements Router.
func (r TorusMinimalRouter) Name() string { return "torus-minimal" }

// NextHops implements Router.
func (r TorusMinimalRouter) NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID {
	x, y := gridXY(at, r.W)
	dx, dy := gridXY(dst, r.W)
	if x != dx {
		nx := ringStep(x, dx, r.W)
		return append(hops, NodeID(y*r.W+nx))
	}
	ny := ringStep(y, dy, r.H)
	return append(hops, NodeID(ny*r.W+x))
}

// HopVC implements VCRouter.
func (r TorusMinimalRouter) HopVC(at, dst NodeID) uint8 {
	if !r.Dateline {
		return 0
	}
	a, b, n := int(at)%r.W, int(dst)%r.W, r.W
	if a == b {
		a, b, n = int(at)/r.W, int(dst)/r.W, r.H
	}
	positive := ringStep(a, b, n) == (a+1)%n
	if positive == (b < a) {
		return 0 // the wrap link is still ahead
	}
	return 1
}

// ringStep moves one hop from a toward b on a ring of n positions,
// taking the shorter direction (ties positive).
func ringStep(a, b, n int) int {
	fwd := ((b - a) + n) % n
	if fwd <= n-fwd {
		return (a + 1) % n
	}
	return (a - 1 + n) % n
}

// FlatFlyRouter is dimension-ordered routing on a flattened butterfly:
// routers form a W×H grid fully connected within each row and each
// column, so DOR needs at most one hop per dimension (x first, then
// y). Each dimension is resolved by a single direct link, so the
// channel-dependency graph is acyclic.
type FlatFlyRouter struct {
	// W, H are the router-grid dimensions.
	W, H int
}

// Name implements Router.
func (r FlatFlyRouter) Name() string { return "flatfly-dor" }

// NextHops implements Router.
func (r FlatFlyRouter) NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID {
	x, y := gridXY(at, r.W)
	dx, dy := gridXY(dst, r.W)
	if x != dx {
		return append(hops, NodeID(y*r.W+dx))
	}
	return append(hops, NodeID(dy*r.W+x))
}

// FatTreeRouter routes a k-ary fat-tree (folded Clos) with the
// standard up*/down* discipline specialized to the three-layer Clos:
// packets climb toward a nearest common ancestor spreading over every
// legal upward port (multipath), then descend on the unique downward
// path. Ascending and descending channels are disjoint, so the
// channel-dependency graph is acyclic.
//
// Switch numbering (half = k/2): edge(p,i) = p*half+i for pod p,
// agg(p,j) = k²/2 + p*half+j, core(x,y) = k² + x*half+y where core
// (x,y) attaches to aggregation switch x of every pod.
type FatTreeRouter struct {
	// K is the switch arity; k/2 hosts per edge switch.
	K int
}

// Name implements Router.
func (r FatTreeRouter) Name() string { return "fattree-updown" }

// NextHops implements Router.
func (r FatTreeRouter) NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID {
	half := r.K / 2
	edgeN := r.K * half    // number of edge switches
	aggEnd := 2 * edgeN    // agg ids are [edgeN, 2*edgeN)
	if int(dst) >= edgeN { // endpoints only live on edge switches
		return hops
	}
	dp := int(dst) / half // destination pod
	switch {
	case int(at) < edgeN: // at an edge switch
		// Within the pod the common ancestor is any aggregation switch of
		// it; across pods the packet climbs, and every aggregation switch
		// leads to cores. Either way: every aggregation switch of the pod.
		p := int(at) / half
		for j := 0; j < half; j++ {
			hops = append(hops, NodeID(edgeN+p*half+j))
		}
		return hops
	case int(at) < aggEnd: // at aggregation switch agg(p, j)
		p := (int(at) - edgeN) / half
		j := (int(at) - edgeN) % half
		if p == dp {
			return append(hops, dst) // descend to the edge switch
		}
		// Climb: agg(p,j) connects to cores (j, y) for all y.
		for y := 0; y < half; y++ {
			hops = append(hops, NodeID(aggEnd+j*half+y))
		}
		return hops
	default: // at core switch core(x, y)
		x := (int(at) - aggEnd) / half
		return append(hops, NodeID(edgeN+dp*half+x)) // descend into the pod
	}
}

// UpDownRouter is generic up*/down* routing, deadlock-free on any
// connected graph: a breadth-first traversal from switch 0 assigns
// each switch a rank, a link toward a higher rank is "down" (toward
// the leaves) and toward a lower rank is "up" (toward the root), and
// a legal path crosses zero or more up links followed by zero or more
// down links. No packet ever turns from down back to up, so no
// channel-dependency cycle can close. The emitted tables are minimal
// within the up*/down* constraint.
//
// It is the default for topologies whose natural minimal routing
// deadlocks without virtual channels (dragonfly).
type UpDownRouter struct {
	rank []int      // BFS order index from switch 0; lower = closer to root
	adj  [][]Edge   // cached forward adjacency
	radj [][]NodeID // cached reverse adjacency over down links only

	// Per-destination memo: table construction iterates destinations in
	// the outer loop, so caching the last destination's distance fields
	// turns an O(switches² · edges) build into O(switches · edges). The
	// fields and the search queue are reused from one destination to
	// the next.
	lastDst  NodeID
	downDist []int // hops to dst using only down links; -1 if unreachable
	cost     []int // min legal up*/down* hops to dst
	byRank   []NodeID
	queue    []NodeID
}

// Name implements Router.
func (r *UpDownRouter) Name() string { return "updown" }

// build ranks the switches by BFS dequeue order from switch 0 and
// caches the adjacency views used by every later query.
func (r *UpDownRouter) build(t *Topology) {
	n := t.NumSwitches()
	r.rank = make([]int, n)
	for i := range r.rank {
		r.rank[i] = -1
	}
	r.adj = t.Adjacency()
	queue := []NodeID{0}
	r.rank[0] = 0
	for head := 0; head < len(queue); head++ {
		for _, e := range r.adj[queue[head]] {
			if r.rank[e.To] < 0 {
				r.rank[e.To] = len(queue)
				queue = append(queue, e.To)
			}
		}
	}
	// Reverse adjacency restricted to down links: radj[v] holds the
	// switches u with a down link u→v.
	r.radj = make([][]NodeID, n)
	for _, l := range t.Links() {
		if r.down(l.From, l.To) {
			r.radj[l.To] = append(r.radj[l.To], l.From)
		}
	}
	// The switches in increasing rank order; rank is a permutation of
	// 0..n-1 for connected graphs, so a bucket sort.
	r.byRank = make([]NodeID, n)
	for i := range r.byRank {
		r.byRank[i] = -1
	}
	for v := NodeID(0); int(v) < n; v++ {
		if rk := r.rank[v]; rk >= 0 {
			r.byRank[rk] = v
		}
	}
	r.downDist = make([]int, n)
	r.cost = make([]int, n)
	r.queue = queue[:0]
	r.lastDst = -1
}

// down reports whether the link u→v descends (away from the root).
func (r *UpDownRouter) down(u, v NodeID) bool { return r.rank[v] > r.rank[u] }

// prepare computes downDist and cost for one destination.
func (r *UpDownRouter) prepare(dst NodeID) {
	for i := range r.downDist {
		r.downDist[i] = -1
	}

	// downDist: reverse BFS from dst over down links only.
	r.downDist[dst] = 0
	queue := append(r.queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, u := range r.radj[cur] {
			if r.downDist[u] < 0 {
				r.downDist[u] = r.downDist[cur] + 1
				queue = append(queue, u)
			}
		}
	}
	r.queue = queue

	// cost[v] = min(downDist[v], 1 + min over up-neighbors u of cost[u]).
	// Up links strictly decrease rank, so evaluating switches in
	// increasing rank order sees every up-neighbor's final cost first.
	const inf = int(^uint(0) >> 1)
	for i := range r.cost {
		r.cost[i] = inf
	}
	for _, v := range r.byRank {
		if v < 0 {
			continue
		}
		c := inf
		if r.downDist[v] >= 0 {
			c = r.downDist[v]
		}
		for _, e := range r.adj[v] {
			if r.down(v, e.To) {
				continue // up candidates only
			}
			if r.cost[e.To] < inf && r.cost[e.To]+1 < c {
				c = r.cost[e.To] + 1
			}
		}
		r.cost[v] = c
	}
	r.lastDst = dst
}

// NextHops implements Router.
func (r *UpDownRouter) NextHops(t *Topology, at, dst NodeID, hops []NodeID) []NodeID {
	if r.rank == nil || len(r.rank) != t.NumSwitches() {
		r.build(t)
	}
	if r.lastDst != dst {
		r.prepare(dst)
	}
	if r.downDist[at] >= 0 {
		// Descend-only phase: once a packet can reach dst going down,
		// every candidate keeps descending (never turns back up).
		for _, e := range r.adj[at] {
			if r.down(at, e.To) && r.downDist[e.To] == r.downDist[at]-1 {
				hops = append(hops, e.To)
			}
		}
		return hops
	}
	// Climb phase: take up links that stay on a minimal legal path.
	const inf = int(^uint(0) >> 1)
	if r.cost[at] == inf {
		return hops
	}
	for _, e := range r.adj[at] {
		if r.down(at, e.To) {
			continue
		}
		if r.cost[e.To] != inf && r.cost[e.To]+1 == r.cost[at] {
			hops = append(hops, e.To)
		}
	}
	return hops
}
