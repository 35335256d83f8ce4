package dse

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nocemu/internal/platform"
)

// Result is a completed sweep: the canonical key-sorted row set, the
// aggregated Pareto front, and throughput accounting.
type Result struct {
	// Rows are all result rows, key-sorted (the canonical JSONL body).
	Rows []Row
	// Points are the aggregated structural points, key-sorted.
	Points []FrontPoint
	// Front is the non-dominated subset of Points under the configured
	// objectives, key-sorted.
	Front []FrontPoint
	// GridSize is the full cross product; Evaluated counts structural
	// points actually run this sweep (journaled points excluded);
	// Resumed counts points adopted from the journal; CacheHits counts
	// warm-ups skipped via the snapshot cache; Pruned is
	// GridSize - Evaluated - Resumed (points the search never visited,
	// plus — on a stopped sweep — points not yet reached).
	GridSize  int
	Evaluated int
	Resumed   int
	CacheHits int
	Pruned    int
	// stopped reports a sweep ended early by sweep's stopAfter.
	stopped bool
	// Elapsed is the wall time of the evaluation phase; PointsPerMin is
	// evaluated structural points per minute of it.
	Elapsed      time.Duration
	PointsPerMin float64
}

// Sweep runs the configured design-space exploration and returns the
// canonical result. Rows land in the journal (when configured) as they
// complete; the returned row set is the key-sorted union of journaled
// and freshly evaluated rows for visited points.
func Sweep(cfg Config) (*Result, error) { return sweep(cfg, 0) }

// sweep is Sweep that stops dispatching once stopAfter structural
// points have been evaluated (0: never), as a killed sweep would: the
// hook the resume tests kill a sweep with.
func sweep(cfg Config, stopAfter int) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	objs, err := ParseObjectives(cfg.Objectives)
	if err != nil {
		return nil, err
	}
	jnl, err := openJournal(&cfg)
	if err != nil {
		return nil, err
	}
	defer jnl.close()

	r := &runner{
		cfg:       &cfg,
		stopAfter: stopAfter,
		objs:      objs,
		eval:      &evaluator{cfg: &cfg, store: platform.NewSnapStore(cfg.CacheDir)},
		jnl:       jnl,
	}
	start := time.Now()
	switch cfg.Search {
	case SearchPareto:
		err = r.runPareto()
	default:
		err = r.runGrid()
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	res := &Result{
		GridSize:  cfg.Axes.GridSize(),
		Evaluated: r.evaluated,
		Resumed:   r.resumed,
		CacheHits: r.eval.store.Hits(),
		stopped:   r.stopped,
		Elapsed:   elapsed,
	}
	res.Pruned = res.GridSize - res.Evaluated - res.Resumed
	if min := elapsed.Minutes(); min > 0 {
		res.PointsPerMin = float64(r.evaluated) / min
	}
	// The canonical row set: every visited point's rows, key-sorted.
	for _, key := range r.visited {
		for fork := 0; fork < cfg.Forks; fork++ {
			if row, ok := jnl.get(key + fmt.Sprintf("|fork=%d", fork)); ok {
				res.Rows = append(res.Rows, row)
			}
		}
	}
	SortRows(res.Rows)
	res.Points = Aggregate(res.Rows)
	res.Front = Front(res.Points, objs)
	return res, nil
}

// runner executes one sweep.
type runner struct {
	cfg  *Config
	objs []Objective
	eval *evaluator
	jnl  *journal

	// mu guards visited, evaluated and Log while a batch's crew runs.
	mu        sync.Mutex
	visited   []string // struct keys of points whose rows are in the result
	evaluated int
	resumed   int
	stopAfter int
	stopped   bool
}

// logf writes one progress line; the caller holds r.mu, so Log receives
// one line at a time.
func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

// evalBatch runs one wave of structural points through crew: on the
// Workers sweep workers and as many helpers as the process-wide budget
// has free, each point measuring its forks on a crew of its own from the
// same budget. Journaled points are adopted without evaluation; the
// stopAfter budget is enforced at dispatch. The batch is a
// barrier: it returns when every point handed out has its rows
// journaled, or the first failure to journal stopped the handing out,
// which keeps the walk deterministic for any crew.
func (r *runner) evalBatch(points []Point) error {
	var todo []Point
	for _, p := range points {
		key := r.cfg.StructKey(p)
		if r.jnl.has(func(fork int) string { return r.cfg.RowKey(p, fork) }, r.cfg.Forks) {
			r.visited = append(r.visited, key)
			r.resumed++
			continue
		}
		if r.stopAfter > 0 && r.evaluated+len(todo) >= r.stopAfter {
			r.stopped = true
			continue
		}
		todo = append(todo, p)
	}
	if len(todo) == 0 {
		return nil
	}
	return crew(len(todo), r.cfg.Workers, func(i int) error {
		p := todo[i]
		if err := r.jnl.append(r.eval.evalPoint(p)); err != nil {
			return err
		}
		key := r.cfg.StructKey(p)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.visited = append(r.visited, key)
		r.evaluated++
		r.logf("dse: %s [%d evaluated]", key, r.evaluated)
		return nil
	}, nil)
}

// runGrid evaluates the full cross product.
func (r *runner) runGrid() error {
	return r.evalBatch(r.cfg.Axes.grid())
}

// runPareto is the successive-refinement search: seed the lattice
// corners, then repeatedly expand the unexplored lattice neighbours of
// the current non-dominated front until the front is closed (no front
// point has an unevaluated neighbour). Waves are barriers, so the
// visited set — and with deterministic rows, the front — is identical
// for every worker count.
func (r *runner) runPareto() error {
	frontier := r.cfg.Axes.corners()
	seen := map[Point]bool{}
	for wave := 0; len(frontier) > 0; wave++ {
		var fresh []Point
		for _, p := range frontier {
			if !seen[p] {
				seen[p] = true
				fresh = append(fresh, p)
			}
		}
		if len(fresh) == 0 {
			break
		}
		if err := r.evalBatch(fresh); err != nil {
			return err
		}
		if r.stopped {
			return nil
		}
		// Rebuild the front from every visited point's rows so far.
		var rows []Row
		for _, key := range r.visited {
			for fork := 0; fork < r.cfg.Forks; fork++ {
				if row, ok := r.jnl.get(fmt.Sprintf("%s|fork=%d", key, fork)); ok {
					rows = append(rows, row)
				}
			}
		}
		front := Front(Aggregate(rows), r.objs)
		onFront := map[string]bool{}
		for _, fp := range front {
			onFront[fp.Key] = true
		}
		// Expand: neighbours of front points not yet visited.
		var next []Point
		for _, p := range r.cfg.Axes.grid() {
			if !seen[p] || !onFront[r.cfg.StructKey(p)] {
				continue
			}
			for _, q := range r.cfg.Axes.neighbors(p) {
				if !seen[q] {
					next = append(next, q)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return pointLess(next[i], next[j]) })
		frontier = next
		r.mu.Lock()
		r.logf("dse: wave %d done: front=%d next=%d", wave, len(front), len(next))
		r.mu.Unlock()
	}
	return nil
}

// pointLess is the canonical point order (axis-index lexicographic).
func pointLess(a, b Point) bool {
	if a.Topo != b.Topo {
		return a.Topo < b.Topo
	}
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.Inj != b.Inj {
		return a.Inj < b.Inj
	}
	return a.Fault < b.Fault
}
