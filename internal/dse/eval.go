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
			pl.Close()
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
// warmed and stored) and measures every fork itself: fork 0 continues,
// fork i > 0 restores the warmed state and reseeds (ReseedFork), so a
// replicate pays a restore and its measure window, never a build.
//
// Cold path (ColdBuild): every fork builds its own platform and replays
// the warm-up, reseeding at the fork cycle exactly as Fork does — the
// ablation baseline. Both paths produce byte-identical rows.
func (e *evaluator) evalPoint(p Point) []Row {
	if e.cfg.ColdBuild {
		return e.evalPointCold(p)
	}
	src, err := e.store.Warm(e.cfg.stateKey(p), e.cfg.WarmupCycles,
		func() (*platform.Platform, error) { return e.build(p) })
	if err != nil {
		return e.errorRows(p, err)
	}
	defer src.Close()
	area := areaSlices(src)
	var warmed []byte
	if e.cfg.Forks > 1 {
		if warmed, err = src.SnapshotBytes(); err != nil {
			return e.errorRows(p, err)
		}
	}
	rows := make([]Row, e.cfg.Forks)
	for i := range rows {
		if i > 0 {
			if err := src.RestoreBytes(warmed); err != nil {
				return e.errorRows(p, err)
			}
			src.ReseedFork(i)
		}
		rows[i] = e.measure(src, p, i, area)
	}
	return rows
}

// evalPointCold is the amortization-free path: per fork, a cold build
// replaying warm-up and reseed — what the warm path's restore and
// ReseedFork stand for.
func (e *evaluator) evalPointCold(p Point) []Row {
	rows := make([]Row, e.cfg.Forks)
	for i := range rows {
		pl, err := e.build(p)
		if err != nil {
			return e.errorRows(p, err)
		}
		pl.RunCycles(e.cfg.WarmupCycles)
		pl.ResetStats()
		pl.ReseedFork(i)
		rows[i] = e.measure(pl, p, i, areaSlices(pl))
		pl.Close()
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
