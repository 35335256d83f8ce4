// Package dse is the design-space exploration engine (DESIGN.md §15):
// an orchestrator that sweeps platform configurations — topology spec ×
// workload × switch buffer depth × injection rate (× optional fault
// campaigns) — on independent platforms running side by side,
// evaluates latency / throughput / area per point, and streams one
// JSONL result row per (point, fork) to a resumable journal.
//
// Three stacked optimizations make sweep throughput the headline
// number:
//
//  1. Process-level parallelism: the structural points of a batch run
//     side by side on the Workers sweep workers and on as many helpers
//     as the process-wide budget of GOMAXPROCS−1 goroutines that
//     simulate beside their caller has free (engine.TakeHelpers), each
//     point on its own platforms; and each point measures its forks on
//     a crew of its own worker and whatever helpers the budget has free
//     then. One hand-out (crew) serves both levels, and a helper gives
//     its slot back as soon as it finds no job left, so the last points
//     of a batch staff their fork crews with it. The budget is shared
//     with the crews each platform's runs hire (engine/duty.go).
//  2. Build/warm-start amortization: each structural point is built and
//     warmed up once; its seed replicates restore the warmed snapshot
//     and reseed (Platform.ReseedFork), and the snapshot is stored
//     under the key of the warmed state (platform.SnapStore) so a
//     resumed or repeated sweep skips the warm-up.
//  3. Pareto pruning: the "pareto" search mode expands lattice
//     neighbours of the current non-dominated front instead of gridding
//     exhaustively, evaluating a fraction of the full grid while
//     finding the same front on well-behaved spaces.
//
// Every row is a pure function of the sweep configuration — platform
// runs are bit-identical across kernel configurations, fork replicates
// reproduce cold-built twins exactly, a stored snapshot is reused only
// under a key naming everything its state depends on, rows land by fork
// index whatever crew measured them — so sweep results are deterministic
// for any worker count, any crew and any warm/cold/cached mix.
package dse

import (
	"fmt"
	"io"
	"strconv"

	"nocemu/internal/fault"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// FaultCampaign names an optional set of link faults applied to every
// platform of a sweep point. The empty campaign (no specs) is the
// fault-free baseline.
type FaultCampaign struct {
	// Name keys the campaign in point keys and result rows ("none" for
	// the empty campaign).
	Name string
	// Specs are the link faults, applied after build (before warm-up).
	Specs []fault.Spec
}

// Axes spans the swept design space: the cross product of all non-empty
// axes is the full grid. Axis order inside each slice is meaningful for
// the Pareto search — lattice neighbours are adjacent indices — so list
// ordered quantities (depths, injections, mesh sizes) monotonically.
type Axes struct {
	// Topos lists the candidate topology specs (required).
	Topos []topology.Spec
	// Workloads lists registered workload kinds (default ["uniform"]).
	Workloads []string
	// BufDepths lists switch buffer depths (default [4]).
	BufDepths []int
	// Injections lists offered loads in flits/node/cycle (default [0.1]).
	Injections []float64
	// Faults lists fault campaigns (default: one fault-free campaign).
	Faults []FaultCampaign
}

// Search selects how the sweep walks the grid.
type Search string

const (
	// SearchGrid evaluates every point of the full cross product.
	SearchGrid Search = "grid"
	// SearchPareto seeds the lattice corners and successively expands
	// neighbours of the non-dominated front, skipping dominated regions.
	SearchPareto Search = "pareto"
)

// Config parameterizes one sweep.
type Config struct {
	// Name labels the sweep in summaries (default "sweep").
	Name string
	// Axes spans the design space.
	Axes Axes
	// Forks is the number of seed replicates per structural point
	// (default 1). Fork 0 continues the warmed state exactly; fork i > 0
	// reseeds every TG with platform.ForkSeed, exploring a divergent
	// future from the shared warm-up.
	Forks int
	// WarmupCycles run before statistics reset and the warm snapshot
	// (default 2000).
	WarmupCycles uint64
	// MeasureCycles is the measured window per row (default 2000).
	MeasureCycles uint64
	// PacketLen is the packet size in flits (default 4).
	PacketLen uint16
	// Seed is the platform base seed shared by every point (default
	// platform default); fork reseeds derive from it.
	Seed uint32
	// WorkloadSeed controls workload structural choices (hotspot victim
	// placement etc).
	WorkloadSeed uint32
	// Workers is the number of dedicated sweep workers (default 1),
	// which the helper budget does not count. Each evaluates whole
	// structural points on its own platforms, and so does every helper
	// the process-wide budget has free: one worker already keeps every
	// processor of the budget busy, and more oversubscribe the host.
	Workers int
	// Search picks the walk (default SearchGrid).
	Search Search
	// Objectives name the Pareto objectives (default latency,
	// throughput, area). See ParseObjectives.
	Objectives []string
	// ColdBuild disables the fork/snapshot amortization: every row is
	// evaluated on its own cold-built platform that replays the warm-up.
	// Rows are byte-identical either way; this is the baseline the
	// benchmark's dse.sweep_cold_s times.
	ColdBuild bool
	// Journal, when non-empty, appends every completed row to this JSONL
	// file as it lands and, on start, skips points whose rows are
	// already journaled — a killed sweep resumes where it stopped. A
	// journal belongs to one sweep configuration: a row recording
	// another warm-up or measure length fails the sweep, but seed and
	// packet length are not in the row format and cannot be checked.
	Journal string
	// CacheDir, when non-empty, persists one warmed .nocsnap per warmed
	// state so resumed or repeated sweeps skip the warm-up too; sweeps
	// of different configurations may share it. Snapshots are always
	// stored in memory within a sweep.
	CacheDir string
	// Log, when non-nil, receives progress lines: one line per Write,
	// and one Write at a time, though points complete on several
	// goroutines.
	Log io.Writer
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Name = "sweep"
	}
	if len(c.Axes.Workloads) == 0 {
		c.Axes.Workloads = []string{"uniform"}
	}
	if len(c.Axes.BufDepths) == 0 {
		c.Axes.BufDepths = []int{4}
	}
	if len(c.Axes.Injections) == 0 {
		c.Axes.Injections = []float64{0.1}
	}
	if len(c.Axes.Faults) == 0 {
		c.Axes.Faults = []FaultCampaign{{Name: "none"}}
	}
	if c.Forks == 0 {
		c.Forks = 1
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 2000
	}
	if c.PacketLen == 0 {
		c.PacketLen = 4
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Search == "" {
		c.Search = SearchGrid
	}
	if len(c.Objectives) == 0 {
		c.Objectives = []string{ObjLatency, ObjThroughput, ObjArea}
	}
}

// validate checks the sweep configuration after defaults.
func (c *Config) validate() error {
	if len(c.Axes.Topos) == 0 {
		return fmt.Errorf("dse: no topology axis")
	}
	for _, wl := range c.Axes.Workloads {
		if _, ok := traffic.LookupWorkload(wl); !ok {
			return fmt.Errorf("dse: unknown workload %q (known: %v)", wl, traffic.WorkloadKinds())
		}
	}
	for _, d := range c.Axes.BufDepths {
		if d < 1 {
			return fmt.Errorf("dse: buffer depth %d", d)
		}
	}
	for _, inj := range c.Axes.Injections {
		if inj <= 0 || inj > 1 {
			return fmt.Errorf("dse: injection %g out of (0,1]", inj)
		}
	}
	for i, fc := range c.Axes.Faults {
		if fc.Name == "" {
			return fmt.Errorf("dse: fault campaign %d has no name", i)
		}
	}
	if c.Forks < 1 {
		return fmt.Errorf("dse: fork count %d", c.Forks)
	}
	if c.Workers < 1 {
		return fmt.Errorf("dse: worker count %d", c.Workers)
	}
	if c.Search != SearchGrid && c.Search != SearchPareto {
		return fmt.Errorf("dse: search %q (want %q or %q)", c.Search, SearchGrid, SearchPareto)
	}
	if _, err := ParseObjectives(c.Objectives); err != nil {
		return err
	}
	return nil
}

// Point is one structural point of the sweep lattice: indices into each
// axis. Seed replicates (forks) are not part of the point — every point
// is evaluated with all Config.Forks replicates at once.
type Point struct {
	Topo     int
	Workload int
	Depth    int
	Inj      int
	Fault    int
}

// GridSize is the number of structural points in the full cross
// product.
func (a *Axes) GridSize() int {
	return len(a.Topos) * len(a.Workloads) * len(a.BufDepths) * len(a.Injections) * len(a.Faults)
}

// grid enumerates every structural point in canonical order (topology
// outermost, fault innermost).
func (a *Axes) grid() []Point {
	pts := make([]Point, 0, a.GridSize())
	for t := range a.Topos {
		for w := range a.Workloads {
			for d := range a.BufDepths {
				for i := range a.Injections {
					for f := range a.Faults {
						pts = append(pts, Point{Topo: t, Workload: w, Depth: d, Inj: i, Fault: f})
					}
				}
			}
		}
	}
	return pts
}

// neighbors returns the lattice neighbours of p: ±1 along each axis,
// within bounds, in canonical order.
func (a *Axes) neighbors(p Point) []Point {
	var out []Point
	step := func(q Point) {
		out = append(out, q)
	}
	if p.Topo > 0 {
		step(Point{p.Topo - 1, p.Workload, p.Depth, p.Inj, p.Fault})
	}
	if p.Topo < len(a.Topos)-1 {
		step(Point{p.Topo + 1, p.Workload, p.Depth, p.Inj, p.Fault})
	}
	if p.Workload > 0 {
		step(Point{p.Topo, p.Workload - 1, p.Depth, p.Inj, p.Fault})
	}
	if p.Workload < len(a.Workloads)-1 {
		step(Point{p.Topo, p.Workload + 1, p.Depth, p.Inj, p.Fault})
	}
	if p.Depth > 0 {
		step(Point{p.Topo, p.Workload, p.Depth - 1, p.Inj, p.Fault})
	}
	if p.Depth < len(a.BufDepths)-1 {
		step(Point{p.Topo, p.Workload, p.Depth + 1, p.Inj, p.Fault})
	}
	if p.Inj > 0 {
		step(Point{p.Topo, p.Workload, p.Depth, p.Inj - 1, p.Fault})
	}
	if p.Inj < len(a.Injections)-1 {
		step(Point{p.Topo, p.Workload, p.Depth, p.Inj + 1, p.Fault})
	}
	if p.Fault > 0 {
		step(Point{p.Topo, p.Workload, p.Depth, p.Inj, p.Fault - 1})
	}
	if p.Fault < len(a.Faults)-1 {
		step(Point{p.Topo, p.Workload, p.Depth, p.Inj, p.Fault + 1})
	}
	return out
}

// corners returns the lattice corner points (every min/max index
// combination over axes with more than one value) — the Pareto search
// seeds. Axes of length one contribute their only index.
func (a *Axes) corners() []Point {
	lens := []int{len(a.Topos), len(a.Workloads), len(a.BufDepths), len(a.Injections), len(a.Faults)}
	pts := []Point{{}}
	expand := func(set func(Point, int) Point, n int) {
		var next []Point
		for _, p := range pts {
			if n == 1 {
				next = append(next, set(p, 0))
				continue
			}
			next = append(next, set(p, 0), set(p, n-1))
		}
		pts = next
	}
	expand(func(p Point, i int) Point { p.Topo = i; return p }, lens[0])
	expand(func(p Point, i int) Point { p.Workload = i; return p }, lens[1])
	expand(func(p Point, i int) Point { p.Depth = i; return p }, lens[2])
	expand(func(p Point, i int) Point { p.Inj = i; return p }, lens[3])
	expand(func(p Point, i int) Point { p.Fault = i; return p }, lens[4])
	return pts
}

// formatInj renders an injection rate canonically (shortest float form)
// for keys and rows.
func formatInj(inj float64) string {
	return strconv.FormatFloat(inj, 'g', -1, 64)
}

// StructKey labels a structural point in rows, journals and logs. It
// names the axes values only — not the seeds, packet length, warm-up or
// fault specs the point's state also depends on — so it is a label
// within one sweep configuration, never a cache key (see stateKey).
func (c *Config) StructKey(p Point) string {
	return fmt.Sprintf("topo=%s|wl=%s|depth=%d|inj=%s|fault=%s",
		c.Axes.Topos[p.Topo].String(),
		c.Axes.Workloads[p.Workload],
		c.Axes.BufDepths[p.Depth],
		formatInj(c.Axes.Injections[p.Inj]),
		c.Axes.Faults[p.Fault].Name)
}

// RowKey identifies one (structural point, fork) result row.
func (c *Config) RowKey(p Point, fork int) string {
	return fmt.Sprintf("%s|fork=%d", c.StructKey(p), fork)
}

// netOptions is the zoo-builder half of a structural point.
func (c *Config) netOptions(p Point) platform.NetOptions {
	return platform.NetOptions{
		Topo:         c.Axes.Topos[p.Topo],
		Workload:     c.Axes.Workloads[p.Workload],
		Injection:    c.Axes.Injections[p.Inj],
		PacketLen:    c.PacketLen,
		Seed:         c.Seed,
		WorkloadSeed: c.WorkloadSeed,
	}
}

// stateKey identifies the point's warmed state in the snapshot store:
// the key of what NetConfig lowers plus what platformConfig and the
// evaluator apply after it — buffer depth, the campaign's fault specs
// (a name may be reused over other specs) and the warm-up length.
func (c *Config) stateKey(p Point) string {
	return fmt.Sprintf("dse|%s|depth=%d|faults=%+v|warmup=%d", c.netOptions(p).Key(),
		c.Axes.BufDepths[p.Depth], c.Axes.Faults[p.Fault].Specs, c.WarmupCycles)
}

// platformConfig lowers a structural point into a buildable platform
// configuration: the zoo builder resolves topology and workload, the
// depth axis overrides the switch buffer depth, and every receptor is
// switched to trace-driven analysis so the sweep observes net latency.
func (c *Config) platformConfig(p Point) (platform.Config, error) {
	cfg, err := platform.NetConfig(c.netOptions(p))
	if err != nil {
		return platform.Config{}, err
	}
	cfg.SwitchBufDepth = c.Axes.BufDepths[p.Depth]
	for i := range cfg.TRs {
		cfg.TRs[i].Mode = receptor.TraceDriven
	}
	return cfg, nil
}
