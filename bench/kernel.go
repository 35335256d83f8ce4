package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"nocemu/internal/control"
	"nocemu/internal/engine"
	"nocemu/internal/flow"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/resource"
	"nocemu/internal/topology"
)

// buildNet is the set-up of a kernel workload: lower the topology and
// workload to a config, build it, run the warm-up. The three steps are
// spans, and the traced run reports their durations.
func buildNet(e *env, sz netSize, noGate bool, lay map[string]float64) (*platform.Platform, error) {
	spec, err := topology.ParseSpec(sz.Topo)
	if err != nil {
		return nil, err
	}
	var cfg platform.Config
	var p *platform.Platform
	d := e.rec.do("platform.netconfig", 0, func() {
		cfg, err = platform.NetConfig(platform.NetOptions{
			Topo: spec, Injection: sz.Inj, Seed: e.seed, WorkloadSeed: e.seed, NoGate: noGate,
		})
	})
	if err != nil {
		return nil, err
	}
	set(lay, "platform.netconfig_ms", ms(d))
	d = e.rec.do("platform.build", 0, func() { p, err = platform.Build(cfg) })
	if err != nil {
		return nil, err
	}
	set(lay, "platform.build_s", d.Seconds())
	d = e.rec.do("platform.warm", 0, func() { p.RunCycles(sz.Warm) })
	set(lay, "platform.warm_s", d.Seconds())
	return p, nil
}

// set records a layer metric once: the first build of a traced run is
// the one reported, not the ungated twin built after it.
func set(lay map[string]float64, name string, v float64) {
	if lay == nil {
		return
	}
	if _, done := lay[name]; !done {
		lay[name] = v
	}
}

// runNet measures one of the three arena workloads: fixed segments of
// RunCycles on a warmed platform.
func runNet(e *env, name string) (*outcome, error) {
	sz := e.sizes.Net[name]
	if e.trace {
		return traceNet(e, name, sz)
	}
	o := &outcome{}
	p, err := setUp(e, o, func() (*platform.Platform, error) { return buildNet(e, sz, false, nil) }, (*platform.Platform).Close)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	snap, err := p.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	start := p.Totals()
	var seg1, slice1 platform.Totals
	slices := e.scale(1)
	for s := 0; s < slices; s++ {
		ops := make([]time.Duration, e.sizes.SegsPerSlice)
		for i := range ops {
			d := e.rec.do("engine.run_gated", i, func() { p.RunCycles(sz.Seg) })
			ops[i] = d
			o.cyclesPerS = append(o.cyclesPerS, float64(sz.Seg)/d.Seconds())
			o.opsPerS = append(o.opsPerS, 1/d.Seconds())
			if s == 0 && i == 0 {
				seg1 = p.Totals()
			}
		}
		o.lat = append(o.lat, ops)
		if s == 0 {
			slice1 = p.Totals()
		}
	}
	o.heapMB = liveHeapMB()
	end := p.Totals()

	want := start.Cycles + uint64(slices*len(o.lat[0]))*sz.Seg
	o.check(end.Cycles == want, "%s: at cycle %d, want %d", name, end.Cycles, want)
	checkTraffic(o, name, start, end)
	e.golden(o, name, fmt.Sprintf("%+v", slice1))
	// The run must be a pure function of its state: the first segment
	// replayed from the snapshot lands on the same totals.
	if err := p.RestoreBytes(snap); err != nil {
		return nil, err
	}
	p.RunCycles(sz.Seg)
	o.check(p.Totals() == seg1, "%s: replay from snapshot: %+v, first run %+v", name, p.Totals(), seg1)
	return o, nil
}

// checkTraffic verifies what any seed must satisfy: traffic flowed in
// the window and no flit was delivered that was never sent.
func checkTraffic(o *outcome, name string, start, end platform.Totals) {
	o.check(end.PacketsReceived > start.PacketsReceived && end.FlitsRouted > start.FlitsRouted,
		"%s: no traffic in the measured window: %+v", name, end)
	o.check(end.FlitsReceived <= end.FlitsSent && end.PacketsSent <= end.PacketsOffered,
		"%s: conservation: %+v", name, end)
}

// traceNet is the per-layer run of an arena workload: the same fixed
// segments gated, ungated (a NoGate twin restored from the same
// snapshot) and, on the twin restored once more, as a class walk that
// drives the components itself.
func traceNet(e *env, name string, sz netSize) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	lay := o.layer
	p, err := buildNet(e, sz, false, lay)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	snap, err := snapshotLayer(e, p, lay)
	if err != nil {
		return nil, err
	}
	twin := sz
	twin.Warm = 0 // the restore below brings the warmed state
	q, err := buildNet(e, twin, true, lay)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	if err := restoreLayer(e, q, snap, lay); err != nil {
		return nil, err
	}
	segs := e.scale(10)
	cycles := uint64(segs) * sz.Seg

	// The gated platform and its ungated twin advance in lockstep,
	// segment by segment, so that host drift lands on both alike.
	start := p.Totals()
	var m0, m1 runtime.MemStats
	var gated, ungated []time.Duration
	for i := 0; i < segs; i++ {
		e.rec.enable(i%2 == 0)
		runtime.ReadMemStats(&m0)
		d := e.rec.do("engine.run_gated", i, func() { p.RunCycles(sz.Seg) })
		runtime.ReadMemStats(&m1)
		lay["runtime.allocs_per_kcycle"] += float64(m1.Mallocs-m0.Mallocs) / (float64(cycles) / 1000)
		gated = append(gated, d)
		e.rec.enable(true)
		ungated = append(ungated, e.rec.do("engine.run_ungated", i, func() { q.RunCycles(sz.Seg) }))
	}
	end := p.Totals()
	checkTraffic(o, name, start, end)
	o.check(q.Totals() == end, "%s: ungated totals %+v, gated %+v", name, q.Totals(), end)
	gatedSeg := median(durs(gated, us))
	hops := float64(end.FlitsRouted - start.FlitsRouted)
	lay["engine.gated_us_per_cycle"] = gatedSeg / float64(sz.Seg)
	lay["engine.ungated_us_per_cycle"] = median(durs(ungated, us)) / float64(sz.Seg)
	lay["engine.gate_ratio"] = lay["engine.ungated_us_per_cycle"] / lay["engine.gated_us_per_cycle"]
	lay["engine.ns_per_flit_hop"] = gatedSeg * 1e3 * float64(segs) / hops
	lay["trace.overhead_ratio"] = overheadRatio(gated)
	simLayer(lay, start, end, p)
	if p.Unmapped() == 0 {
		if err := reportLayer(e, p, lay); err != nil {
			return nil, err
		}
	}

	if err := q.RestoreBytes(snap); err != nil {
		return nil, err
	}
	w := newWalk(q)
	for i := 0; i < segs; i++ {
		w.run(e, i, sz.Seg, false)
	}
	w.report(lay, hops)
	got := q.Totals()
	got.Cycles = end.Cycles // the walk bypasses the engine's cycle counter
	o.check(w.cycles == cycles && got == end, "%s: class-walk totals %+v after %d cycles, gated %+v", name, got, w.cycles, end)
	d := e.rec.do("platform.fullreset", 0, func() { err = q.FullReset() })
	if err != nil {
		return nil, err
	}
	lay["platform.fullreset_ms"] = ms(d)
	return o, nil
}

// snapshotLayer times SnapshotBytes and sizes the result.
func snapshotLayer(e *env, p *platform.Platform, lay map[string]float64) (snap []byte, err error) {
	d := e.rec.do("platform.snapshot", 0, func() { snap, err = p.SnapshotBytes() })
	lay["platform.snapshot_ms"] = ms(d)
	lay["state.snapshot_kb"] = float64(len(snap)) / 1024
	return snap, err
}

func restoreLayer(e *env, p *platform.Platform, snap []byte, lay map[string]float64) (err error) {
	d := e.rec.do("platform.restore", 0, func() { err = p.RestoreBytes(snap) })
	lay["platform.restore_ms"] = ms(d)
	return err
}

// reportLayer times the monitor's JSON report, read over the buses.
func reportLayer(e *env, p *platform.Platform, lay map[string]float64) (err error) {
	var buf bytes.Buffer
	d := e.rec.do("monitor.report", 0, func() { err = monitor.WriteJSON(&buf, p) })
	lay["monitor.report_ms"] = ms(d)
	lay["monitor.report_kb"] = float64(buf.Len()) / 1024
	return err
}

// simLayer records the simulated counts of the measured window: they
// repeat exactly for a seed and must not move under a pure speed-up.
func simLayer(lay map[string]float64, start, end platform.Totals, p *platform.Platform) {
	lay["sim.cycles"] = float64(end.Cycles - start.Cycles)
	lay["sim.flit_hops"] = float64(end.FlitsRouted - start.FlitsRouted)
	lay["sim.packets_received"] = float64(end.PacketsReceived - start.PacketsReceived)
	lay["sim.blocked_cycles"] = float64(end.BlockedCycles - start.BlockedCycles)
	lay["sim.congestion_rate"] = end.CongestionRate
	lay["flit.pool_live"] = float64(p.Pool().Live())
}

// walk advances an ungated platform by driving its components
// directly — every Tick in registration order, then every Commit, as
// the engine's own Step does — and charges each maximal run of one
// component class to that class's module.
type walk struct {
	p        *platform.Platform
	runs     []classRun
	stoppers []engine.Stopper
	tick     map[string]time.Duration
	commit   map[string]time.Duration
	total    time.Duration
	cycles   uint64
}

type classRun struct {
	class string
	comps []engine.Component
}

func newWalk(p *platform.Platform) *walk {
	w := &walk{
		p: p, stoppers: p.Engine().Stoppers(),
		tick: map[string]time.Duration{}, commit: map[string]time.Duration{},
	}
	for _, c := range p.Engine().Components() {
		class := strings.TrimPrefix(strings.SplitN(fmt.Sprintf("%T", c), ".", 2)[0], "*")
		if n := len(w.runs); n == 0 || w.runs[n-1].class != class {
			w.runs = append(w.runs, classRun{class: class})
		}
		r := &w.runs[len(w.runs)-1]
		r.comps = append(r.comps, c)
	}
	return w
}

// run walks up to maxCycles cycles as one op. With untilDone it polls
// the engine's Stoppers before each cycle, as RunUntil does.
func (w *walk) run(e *env, op int, maxCycles uint64, untilDone bool) {
	tick := map[string]time.Duration{}
	commit := map[string]time.Duration{}
	c0 := w.p.Engine().Cycle() + w.cycles
	var n uint64
	w.total += e.rec.do("engine.class_walk", op, func() {
		for ; n < maxCycles; n++ {
			if untilDone && allDone(w.stoppers) {
				return
			}
			cyc := c0 + n
			t := time.Now()
			for _, r := range w.runs {
				for _, c := range r.comps {
					c.Tick(cyc)
				}
				now := time.Now()
				tick[r.class] += now.Sub(t)
				t = now
			}
			for _, r := range w.runs {
				for _, c := range r.comps {
					c.Commit(cyc)
				}
				now := time.Now()
				commit[r.class] += now.Sub(t)
				t = now
			}
		}
	})
	w.cycles += n
	for class, d := range tick {
		w.tick[class] += e.rec.scaleStale(d)
		w.commit[class] += e.rec.scaleStale(commit[class])
	}
}

func (w *walk) report(lay map[string]float64, hops float64) {
	per := func(d time.Duration) float64 { return us(d) / float64(w.cycles) }
	for _, class := range []string{"traffic", "switchfab", "link", "receptor"} {
		lay[class+".tick_us_per_cycle"] = per(w.tick[class])
		lay[class+".commit_us_per_cycle"] = per(w.commit[class])
	}
	sw := w.tick["switchfab"] + w.commit["switchfab"]
	lay["engine.walk_us_per_cycle"] = per(w.total)
	lay["switchfab.share"] = float64(sw) / float64(w.total)
	lay["switchfab.ns_per_flit_hop"] = float64(sw) / hops
}

func allDone(stoppers []engine.Stopper) bool {
	for _, s := range stoppers {
		if !s.Done() {
			return false
		}
	}
	return len(stoppers) > 0
}

// runPaper measures the paper's own platform through the six-step flow
// nocemu -paper runs, report included. One op is one whole flow.
func runPaper(e *env, name string) (*outcome, error) {
	cfg, err := platform.PaperConfig(platform.PaperOptions{
		Load: e.sizes.Paper.Load, PacketsPerTG: e.sizes.Paper.PacketsPerTG, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	if e.trace {
		return tracePaper(e, name, cfg)
	}
	o := &outcome{}
	// Set-up is one untimed flow: it fills the caches and finishes the
	// lazy initialisation the measured flows should not pay for.
	if _, err := setUp(e, o, func() (flowRun, error) { return oneFlow(e, cfg, 0) }, func(flowRun) {}); err != nil {
		return nil, err
	}
	var first platform.Totals
	for s := 0; s < e.scale(1); s++ {
		ops := make([]time.Duration, e.sizes.SegsPerSlice)
		for i := range ops {
			r, err := oneFlow(e, cfg, i)
			if err != nil {
				return nil, err
			}
			ops[i] = r.total
			o.cyclesPerS = append(o.cyclesPerS, float64(r.totals.Cycles)/r.emulate.Seconds())
			o.opsPerS = append(o.opsPerS, 1/r.total.Seconds())
			if s == 0 && i == 0 {
				first = r.totals
			}
			o.check(r.stopped && r.totals == first, "%s: flow %d: stopped=%v totals %+v, first flow %+v", name, i, r.stopped, r.totals, first)
		}
		o.lat = append(o.lat, ops)
	}
	o.heapMB = liveHeapMB()
	want := 4 * e.sizes.Paper.PacketsPerTG
	o.check(first.PacketsReceived == want, "%s: received %d packets, want %d", name, first.PacketsReceived, want)
	e.golden(o, name, fmt.Sprintf("%+v", first))
	return o, nil
}

// flowRun is one execution of the flow plus the JSON report.
type flowRun struct {
	total, emulate, report time.Duration
	reportBytes            int
	totals                 platform.Totals
	stopped                bool
}

func oneFlow(e *env, cfg platform.Config, op int) (r flowRun, err error) {
	defer func() { r.emulate = e.rec.scaleStale(r.emulate) }() // flow.Run's own clock is the host's
	r.total = e.rec.do("paper_flow.op", op, func() {
		var rep *flow.RunReport
		e.rec.do("flow.run", op, func() { rep, err = flow.Run(cfg, control.Program{}, flow.Options{}) })
		if err != nil {
			return
		}
		defer rep.Platform.Close()
		var buf bytes.Buffer
		r.report = e.rec.do("monitor.report", op, func() { err = monitor.WriteJSON(&buf, rep.Platform) })
		r.reportBytes = buf.Len()
		r.emulate, r.totals, r.stopped = rep.Wall, rep.Totals, rep.Exec.Stopped
	})
	return r, err
}

// tracePaper splits the flow into its steps. flow.Run cannot be opened
// from outside, so emulate is its own RunReport.Wall, build and the
// synthesis estimate are timed by calling them directly, and whatever
// is left of a flow's wall time is flow.other_ms.
func tracePaper(e *env, name string, cfg platform.Config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	lay := o.layer
	flows := e.scale(10)

	ungatedCfg := cfg
	ungatedCfg.NoGate = true
	// Gated and ungated flows alternate, so host drift lands on both.
	var runs []flowRun
	var totals []time.Duration
	var ungated []float64
	for i := 0; i < flows; i++ {
		e.rec.enable(i%2 == 0)
		r, err := oneFlow(e, cfg, i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		totals = append(totals, r.total)
		e.rec.enable(true)
		u, err := oneFlow(e, ungatedCfg, flows+i)
		if err != nil {
			return nil, err
		}
		ungated = append(ungated, u.emulate.Seconds())
		o.check(u.totals == runs[0].totals, "%s: ungated flow totals %+v, gated %+v", name, u.totals, runs[0].totals)
	}
	ref := runs[0].totals
	var emu, other, report []float64
	for _, r := range runs {
		emu = append(emu, r.emulate.Seconds())
		report = append(report, ms(r.report))
		other = append(other, ms(r.total-r.emulate-r.report))
	}
	lay["flow.emulate_s"] = median(emu)
	lay["flow.other_ms"] = median(other)
	lay["monitor.report_ms"] = median(report)
	lay["monitor.report_kb"] = float64(runs[0].reportBytes) / 1024
	lay["engine.gated_us_per_cycle"] = median(emu) * 1e6 / float64(ref.Cycles)
	lay["engine.ungated_us_per_cycle"] = median(ungated) * 1e6 / float64(ref.Cycles)
	lay["engine.gate_ratio"] = median(ungated) / median(emu)
	lay["engine.ns_per_flit_hop"] = median(emu) * 1e9 / float64(ref.FlitsRouted)
	lay["trace.overhead_ratio"] = overheadRatio(totals)

	// The steps flow.Run hides, called directly on a platform of our own.
	var p *platform.Platform
	var err error
	d := e.rec.do("platform.netconfig", 0, func() {
		_, err = platform.PaperConfig(platform.PaperOptions{Load: e.sizes.Paper.Load, PacketsPerTG: e.sizes.Paper.PacketsPerTG, Seed: e.seed})
	})
	if err != nil {
		return nil, err
	}
	lay["platform.netconfig_ms"] = ms(d)
	d = e.rec.do("platform.build", 0, func() { p, err = platform.Build(ungatedCfg) })
	if err != nil {
		return nil, err
	}
	defer p.Close()
	lay["platform.build_s"] = d.Seconds()
	d = e.rec.do("resource.estimate", 0, func() { _, err = resource.Estimate(p, resource.VirtexIIPro) })
	if err != nil {
		return nil, err
	}
	lay["resource.estimate_ms"] = ms(d)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := newWalk(p)
	w.run(e, 0, 10_000_000, true)
	runtime.ReadMemStats(&m1)
	w.report(lay, float64(ref.FlitsRouted))
	got := p.Totals()
	got.Cycles = ref.Cycles
	o.check(w.cycles == ref.Cycles && got == ref, "%s: class-walk totals %+v after %d cycles, flow %+v", name, got, w.cycles, ref)
	simLayer(lay, platform.Totals{}, ref, p)
	lay["runtime.allocs_per_kcycle"] = float64(m1.Mallocs-m0.Mallocs) / (float64(w.cycles) / 1000)

	snap, err := snapshotLayer(e, p, lay)
	if err != nil {
		return nil, err
	}
	if err := restoreLayer(e, p, snap, lay); err != nil {
		return nil, err
	}
	d = e.rec.do("platform.fullreset", 0, func() { err = p.FullReset() })
	lay["platform.fullreset_ms"] = ms(d)
	return o, err
}
