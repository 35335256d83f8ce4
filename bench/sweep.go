package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nocemu/internal/dse"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
)

// sweepConfig is the reference grid as nocsweep would run it: one pool
// worker, sequential platforms, journal on, a fresh in-memory snapshot
// cache per sweep.
func sweepConfig(e *env, z sweepSize, journal string) (dse.Config, error) {
	cfg := dse.Config{
		Name: "bench",
		Axes: dse.Axes{
			Workloads: []string{"uniform"}, BufDepths: z.Depths, Injections: z.Injs,
			Faults: []dse.FaultCampaign{{Name: "none"}},
		},
		Forks: z.Forks, WarmupCycles: z.Warm, MeasureCycles: z.Measure,
		Seed: e.seed, WorkloadSeed: e.seed, Workers: 1, Journal: journal,
	}
	for _, t := range z.Topos {
		spec, err := topology.ParseSpec(t)
		if err != nil {
			return dse.Config{}, err
		}
		cfg.Axes.Topos = append(cfg.Axes.Topos, spec)
	}
	return cfg, nil
}

// pointClock timestamps the sweep's progress lines: with one worker,
// dse logs one line as each structural point completes, which is all a
// nocsweep user sees of a point's latency.
type pointClock struct {
	*clock
	start time.Time
	lat   []time.Duration
}

// Write runs on the sweep's worker between two points, so the
// calibration it may take delays the sweep but is charged to no point.
func (c *pointClock) Write(b []byte) (int, error) {
	c.lat = append(c.lat, c.scale(time.Since(c.start)))
	c.start = time.Now()
	return len(b), nil
}

// swept is one timed dse.Sweep; its wall time is the sum of its points'.
type swept struct {
	res    *dse.Result
	wall   time.Duration
	points []time.Duration
	digest string
}

// sweepOnce runs one sweep under a span. Each gets its own journal
// file unless the mutation removes it.
func sweepOnce(e *env, z sweepSize, span string, mutate func(*dse.Config)) (*swept, error) {
	e.sweeps++
	cfg, err := sweepConfig(e, z, filepath.Join(e.tmp, fmt.Sprintf("journal-%d.jsonl", e.sweeps)))
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&cfg)
	}
	clock := &pointClock{clock: &e.rec.clock}
	cfg.Log = clock
	s := &swept{}
	e.rec.do(span, e.sweeps, func() {
		clock.start = time.Now()
		s.res, err = dse.Sweep(cfg)
	})
	if err != nil {
		return nil, err
	}
	if cfg.Journal != "" {
		os.Remove(cfg.Journal)
	}
	s.points = clock.lat
	for _, d := range s.points {
		s.wall += d
	}
	var buf bytes.Buffer
	if err := dse.WriteRows(&buf, s.res.Rows); err != nil {
		return nil, err
	}
	s.digest = digest(buf.String())
	return s, nil
}

// checkRows verifies a sweep's row set is complete and error-free.
func checkRows(o *outcome, name string, z sweepSize, s *swept) {
	points := len(z.Topos) * len(z.Depths) * len(z.Injs)
	ok := len(s.res.Rows) == points*z.Forks && len(s.points) == points
	for _, r := range s.res.Rows {
		ok = ok && r.Error == "" && r.PacketsReceived > 0
	}
	o.check(ok, "%s: %d rows over %d timed points, want %d over %d, none failed or empty",
		name, len(s.res.Rows), len(s.points), points*z.Forks, points)
}

// runSweep measures what a nocsweep user waits for. One op is one
// structural point; throughput counts points per second of sweep.
func runSweep(e *env, name string) (*outcome, error) {
	z := e.sizes.Sweep
	if e.trace {
		return traceSweep(e, name, z)
	}
	o := &outcome{}
	// Set-up primes the registries and the page cache with the grid's
	// first corner only.
	corner := z
	corner.Depths, corner.Injs, corner.Forks = z.Depths[:1], z.Injs[:1], 1
	if _, err := setUp(e, o, func() (*swept, error) { return sweepOnce(e, corner, "dse.sweep_prime", nil) }, func(*swept) {}); err != nil {
		return nil, err
	}
	points := len(z.Topos) * len(z.Depths) * len(z.Injs)
	cycles := float64(points) * float64(z.Warm+uint64(z.Forks)*z.Measure)
	var first *swept
	for i := 0; i < e.scale(z.Sweeps); i++ {
		s, err := sweepOnce(e, z, "dse.sweep", nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = s
		}
		checkRows(o, name, z, s)
		o.check(s.digest == first.digest, "%s: sweep %d rows differ from the first sweep's", name, i)
		o.lat = append(o.lat, s.points)
		o.cyclesPerS = append(o.cyclesPerS, cycles/s.wall.Seconds())
		o.opsPerS = append(o.opsPerS, float64(points)/s.wall.Seconds())
	}
	o.heapMB = liveHeapMB()
	e.golden(o, name, first.digest)
	return o, nil
}

// traceSweep prices the sweep's stages twice over: by ablation (whole
// sweeps without the fork amortization, with a warm persistent cache,
// without the journal) and by replaying every point's pipeline — build,
// warm, snapshot, fork, measure — through the public platform API.
func traceSweep(e *env, name string, z sweepSize) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	lay := o.layer
	warm, err := sweepOnce(e, z, "dse.sweep_warm", nil)
	if err != nil {
		return nil, err
	}
	checkRows(o, name, z, warm)
	cold, err := sweepOnce(e, z, "dse.sweep_cold", func(c *dse.Config) { c.ColdBuild = true })
	if err != nil {
		return nil, err
	}
	o.check(cold.digest == warm.digest, "%s: cold-build rows differ from fork-amortized rows", name)
	cacheDir := filepath.Join(e.tmp, "snapcache")
	if _, err := sweepOnce(e, z, "dse.sweep_fillcache", func(c *dse.Config) { c.CacheDir = cacheDir }); err != nil {
		return nil, err
	}
	hit, err := sweepOnce(e, z, "dse.sweep_cachehit", func(c *dse.Config) { c.CacheDir = cacheDir })
	if err != nil {
		return nil, err
	}
	o.check(hit.digest == warm.digest, "%s: cache-hit rows differ from fork-amortized rows", name)
	noj, err := sweepOnce(e, z, "dse.sweep_nojournal", func(c *dse.Config) { c.Journal = "" })
	if err != nil {
		return nil, err
	}
	o.check(noj.digest == warm.digest, "%s: journal-less rows differ from journaled rows", name)
	lay["dse.sweep_warm_s"] = warm.wall.Seconds()
	lay["dse.sweep_cold_s"] = cold.wall.Seconds()
	lay["dse.sweep_cachehit_s"] = hit.wall.Seconds()
	lay["dse.sweep_nojournal_s"] = noj.wall.Seconds()
	lay["dse.amortization"] = cold.wall.Seconds() / warm.wall.Seconds()
	lay["dse.journal_share"] = (warm.wall - noj.wall).Seconds() / warm.wall.Seconds()
	lay["dse.rows"] = float64(len(warm.res.Rows))
	lay["dse.cache_hits"] = float64(hit.res.CacheHits)
	// The recorder is never switched off here: a sweep is seconds long
	// and holds a handful of spans.
	lay["trace.overhead_ratio"] = 1

	rows := map[string]dse.Row{}
	for _, r := range warm.res.Rows {
		rows[r.Key] = r
	}
	cfg, err := sweepConfig(e, z, "")
	if err != nil {
		return nil, err
	}
	var build, warmup, snapshot, fork, measure []time.Duration
	var cycles uint64
	op := 0
	for ti, spec := range cfg.Axes.Topos {
		for di, depth := range z.Depths {
			for ii, inj := range z.Injs {
				op++
				pc, err := platform.NetConfig(platform.NetOptions{
					Topo: spec, Workload: "uniform", Injection: inj, Seed: e.seed, WorkloadSeed: e.seed,
				})
				if err != nil {
					return nil, err
				}
				pc.SwitchBufDepth = depth
				for i := range pc.TRs {
					pc.TRs[i].Mode = receptor.TraceDriven
				}
				var p *platform.Platform
				build = append(build, e.rec.do("platform.build", op, func() { p, err = platform.Build(pc) }))
				if err != nil {
					return nil, err
				}
				warmup = append(warmup, e.rec.do("platform.warm", op, func() { p.RunCycles(z.Warm); p.ResetStats() }))
				snapshot = append(snapshot, e.rec.do("platform.snapshot", op, func() { _, err = p.SnapshotBytes() }))
				if err != nil {
					return nil, err
				}
				var forks []*platform.Platform
				fork = append(fork, e.rec.do("platform.fork", op, func() { forks, err = p.Fork(z.Forks) }))
				if err != nil {
					return nil, err
				}
				same := true
				measure = append(measure, e.rec.do("engine.measure", op, func() {
					for fi, f := range forks {
						f.RunCycles(z.Measure)
						t := f.Totals()
						r := rows[cfg.RowKey(dse.Point{Topo: ti, Depth: di, Inj: ii}, fi)]
						same = same && t.PacketsReceived == r.PacketsReceived && t.FlitsReceived == r.FlitsReceived
						f.Close()
					}
				}))
				p.Close()
				cycles += z.Warm + uint64(z.Forks)*z.Measure
				o.check(same, "%s: replayed point %s does not reproduce the sweep's rows", name, cfg.StructKey(dse.Point{Topo: ti, Depth: di, Inj: ii}))
			}
		}
	}
	lay["dse.point_build_ms"] = median(durs(build, ms))
	lay["dse.point_warm_ms"] = median(durs(warmup, ms))
	lay["dse.point_snapshot_ms"] = median(durs(snapshot, ms))
	lay["dse.point_fork_ms"] = median(durs(fork, ms))
	lay["dse.point_measure_ms"] = median(durs(measure, ms))
	lay["platform.build_s"] = median(durs(build, time.Duration.Seconds))
	lay["platform.warm_s"] = median(durs(warmup, time.Duration.Seconds))
	lay["platform.snapshot_ms"] = median(durs(snapshot, ms))
	lay["sim.cycles"] = float64(cycles)
	return o, nil
}
