package dse

import (
	"nocemu/internal/platform"
	"nocemu/internal/resource"
)

// evaluator runs structural points into result rows.
type evaluator struct {
	cfg   *Config
	store *platform.SnapStore
}

// errorRows marks every fork of a failed point with the same error so
// the sweep records the rejection (e.g. a deadlock-prone combination)
// instead of aborting.
func (e *evaluator) errorRows(p Point, err error) []Row {
	rows := make([]Row, e.cfg.Forks)
	for i := range rows {
		rows[i] = e.baseRow(p, i)
		rows[i].Error = err.Error()
	}
	return rows
}

func (e *evaluator) baseRow(p Point, fork int) Row {
	return Row{
		Key:           e.cfg.RowKey(p, fork),
		Topo:          e.cfg.Axes.Topos[p.Topo].String(),
		Workload:      e.cfg.Axes.Workloads[p.Workload],
		BufDepth:      e.cfg.Axes.BufDepths[p.Depth],
		Injection:     e.cfg.Axes.Injections[p.Inj],
		Fault:         e.cfg.Axes.Faults[p.Fault].Name,
		Fork:          fork,
		WarmupCycles:  e.cfg.WarmupCycles,
		MeasureCycles: e.cfg.MeasureCycles,
	}
}

// build constructs the point's platform with its fault campaign
// attached (faults are structural: they join the snapshot plan, so the
// warm snapshot restores into an identically shaped twin).
func (e *evaluator) build(p Point) (*platform.Platform, error) {
	cfg, err := e.cfg.platformConfig(p)
	if err != nil {
		return nil, err
	}
	pl, err := platform.Build(cfg)
	if err != nil {
		return nil, err
	}
	if specs := e.cfg.Axes.Faults[p.Fault].Specs; len(specs) > 0 {
		if _, err := pl.AddFaults(specs); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// evalPoint evaluates all forks of one structural point and returns one
// row per fork, in fork order.
//
// Warm path (the default): one platform reaches the warmed post-reset
// state through the snapshot store (restored when stored, otherwise
// warmed and stored) and measures fork 0 by continuing; every other fork
// restores the warmed state into a platform of the crew and reseeds
// (ReseedFork), so a replicate pays a restore and its measure window,
// never a warm-up.
//
// Cold path (ColdBuild): every fork builds its own platform and replays
// the warm-up, reseeding at the fork cycle exactly as Fork does — the
// ablation baseline. Both paths produce byte-identical rows, on any crew.
func (e *evaluator) evalPoint(p Point) []Row {
	if e.cfg.ColdBuild {
		return e.evalPointCold(p)
	}
	src, err := e.store.Warm(e.cfg.stateKey(p), e.cfg.WarmupCycles,
		func(bool) (*platform.Platform, error) { return e.build(p) })
	if err != nil {
		return e.errorRows(p, err)
	}
	area := areaSlices(src)
	var warmed []byte
	if e.cfg.Forks > 1 {
		if warmed, err = src.SnapshotBytes(); err != nil {
			return e.errorRows(p, err)
		}
	}
	return e.onCrew(p, src, func(pl *platform.Platform, i int) (Row, error) {
		if i > 0 {
			if err := pl.RestoreBytes(warmed); err != nil {
				return Row{}, err
			}
			pl.ReseedFork(i)
		}
		return e.measure(pl, p, i, area), nil
	})
}

// evalPointCold is the amortization-free path: per fork, a cold build
// replaying warm-up and reseed — what the warm path's restore and
// ReseedFork stand for.
func (e *evaluator) evalPointCold(p Point) []Row {
	return e.onCrew(p, nil, func(_ *platform.Platform, i int) (Row, error) {
		pl, err := e.build(p)
		if err != nil {
			return Row{}, err
		}
		pl.RunCycles(e.cfg.WarmupCycles)
		pl.ResetStats()
		pl.ReseedFork(i)
		return e.measure(pl, p, i, areaSlices(pl)), nil
	})
}

// onCrew measures the point's forks through crew: on the caller's
// goroutine and as many helpers, up to Forks−1, as the engine's
// process-wide budget has free. The caller measures fork 0 first, on
// own. Where own is non-nil each helper measures on a twin it builds
// (e.build: same shape, same faults); one whose twin fails to build
// takes no fork.
//
// Rows land by index, so they do not depend on the crew; a failed fork
// makes the point's rows errorRows carrying the error of the
// lowest-index fork that fails, whatever the crew.
func (e *evaluator) onCrew(p Point, own *platform.Platform, fork func(pl *platform.Platform, i int) (Row, error)) []Row {
	rows := make([]Row, e.cfg.Forks)
	on := func(pl *platform.Platform) func(int) error {
		return func(i int) (err error) {
			rows[i], err = fork(pl, i)
			return err
		}
	}
	var hire func() func(int) error
	if own != nil {
		hire = func() func(int) error {
			twin, err := e.build(p)
			if err != nil {
				return nil
			}
			return on(twin)
		}
	}
	if err := crew(len(rows), 1, on(own), hire); err != nil {
		return e.errorRows(p, err)
	}
	return rows
}

// measure runs the measured window and folds the platform's statistics
// into a row. Statistics were reset at the warm-up boundary (and the
// warm snapshot carries that reset), so totals cover exactly the
// measured window.
func (e *evaluator) measure(pl *platform.Platform, p Point, fork int, area int) Row {
	pl.RunCycles(e.cfg.MeasureCycles)
	t := pl.Totals()
	row := e.baseRow(p, fork)
	row.Terminals = len(pl.TGs())
	row.LatencyCycles = t.MeanNetLatency
	row.Throughput = float64(t.FlitsReceived) / (float64(e.cfg.MeasureCycles) * float64(row.Terminals))
	row.AreaSlices = area
	row.PacketsReceived = t.PacketsReceived
	row.FlitsReceived = t.FlitsReceived
	row.Congestion = t.CongestionRate
	return row
}

// areaSlices estimates the platform's synthesized area — the sweep's
// third objective. Area depends only on structure, so it is computed
// once per structural point and shared by every fork.
func areaSlices(pl *platform.Platform) int {
	rep, err := resource.Estimate(pl, resource.VirtexIIPro)
	if err != nil {
		return 0
	}
	return rep.TotalSlices
}
