package main

import (
	"fmt"
	"time"
)

// metric is one declared number: BENCHMARK.json lists exactly these,
// and bench_test.go fails when the file and these tables disagree.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the emulator sees. Every workload
// reports all of them from the untraced run; what "op" means on each
// workload is in the workloads table. Times are at reference host speed
// (clock.go). Bound is the share of the parent's median a later PR may
// lose before it counts as a regression: the host's own run-to-run
// spread, even calibrated, is 3-10 %, and a bound must be three times
// the spread to be safe, so the timing bounds sit at the contract's cap.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer are the traced run's numbers, named <module>.<what>. A
// workload that does not exercise a layer reports 0 for it. README.md
// says which end-to-end metric each should move, and where.
var perLayer = []metric{
	// platform / state
	{Name: "platform.netconfig_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.build_s", Unit: "s", Better: "lower"},
	{Name: "platform.warm_s", Unit: "s", Better: "lower"},
	{Name: "platform.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.fullreset_ms", Unit: "ms", Better: "lower"},
	{Name: "platform.fork8_ms", Unit: "ms", Better: "lower"},
	{Name: "state.snapshot_kb", Unit: "KB", Better: "lower"},
	// engine
	{Name: "engine.gated_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "engine.ungated_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "engine.gate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.walk_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "engine.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "engine.step64_us", Unit: "us", Better: "lower"},
	// class walk on the ungated platform
	{Name: "traffic.tick_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "traffic.commit_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "switchfab.tick_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "switchfab.commit_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "link.tick_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "link.commit_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "receptor.tick_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "receptor.commit_us_per_cycle", Unit: "us/cycle", Better: "lower"},
	{Name: "switchfab.share", Unit: "ratio", Better: "lower"},
	{Name: "switchfab.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	// simulated: host-independent, repeat exactly for a seed
	{Name: "sim.cycles", Unit: "count", Better: "higher"},
	{Name: "sim.flit_hops", Unit: "count", Better: "higher"},
	{Name: "sim.packets_received", Unit: "count", Better: "higher"},
	{Name: "sim.blocked_cycles", Unit: "count", Better: "lower"},
	{Name: "sim.congestion_rate", Unit: "ratio", Better: "lower"},
	{Name: "flit.pool_live", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_kcycle", Unit: "1/kcycle", Better: "lower"},
	// monitor / flow / resource
	{Name: "monitor.report_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.report_kb", Unit: "KB", Better: "lower"},
	{Name: "resource.estimate_ms", Unit: "ms", Better: "lower"},
	{Name: "flow.emulate_s", Unit: "s", Better: "lower"},
	{Name: "flow.other_ms", Unit: "ms", Better: "lower"},
	// serve / jsonio / http
	{Name: "http.transport_us", Unit: "us", Better: "lower"},
	{Name: "jsonio.codec_us", Unit: "us", Better: "lower"},
	{Name: "jsonio.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "jsonio.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.dispatch_xfer_us", Unit: "us", Better: "lower"},
	{Name: "serve.xfer_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cycles_per_xfer", Unit: "cycles", Better: "lower"},
	{Name: "serve.xfer_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "serve.open_warm_us", Unit: "us", Better: "lower"},
	{Name: "serve.open_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.park_us", Unit: "us", Better: "lower"},
	{Name: "serve.resume_us", Unit: "us", Better: "lower"},
	{Name: "serve.stats_us", Unit: "us", Better: "lower"},
	{Name: "serve.close_us", Unit: "us", Better: "lower"},
	{Name: "serve.warm_hits", Unit: "count", Better: "higher"},
	{Name: "serve.parked", Unit: "count", Better: "higher"},
	{Name: "serve.resumed", Unit: "count", Better: "higher"},
	{Name: "serve.evicted", Unit: "count", Better: "lower"},
	{Name: "serve.pooled_platforms", Unit: "count", Better: "higher"},
	// dse
	{Name: "dse.point_build_ms", Unit: "ms", Better: "lower"},
	{Name: "dse.point_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "dse.point_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "dse.point_fork_ms", Unit: "ms", Better: "lower"},
	{Name: "dse.point_measure_ms", Unit: "ms", Better: "lower"},
	{Name: "dse.sweep_warm_s", Unit: "s", Better: "lower"},
	{Name: "dse.sweep_cold_s", Unit: "s", Better: "lower"},
	{Name: "dse.sweep_cachehit_s", Unit: "s", Better: "lower"},
	{Name: "dse.sweep_nojournal_s", Unit: "s", Better: "lower"},
	{Name: "dse.amortization", Unit: "ratio", Better: "higher"},
	{Name: "dse.journal_share", Unit: "ratio", Better: "lower"},
	{Name: "dse.rows", Unit: "count", Better: "higher"},
	{Name: "dse.cache_hits", Unit: "count", Better: "higher"},
	// the benchmark itself
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher"},
}

// outcome is what a workload hands back. The untraced run fills the
// sample lists; the traced run fills layer.
type outcome struct {
	// setups are repeats of the whole set-up (config, build, warm-up,
	// listener, cache priming).
	setups []time.Duration
	// lat holds op latencies, one list per slice of equal fixed work.
	lat [][]time.Duration
	// cyclesPerS and opsPerS hold one sample per equal unit of work
	// (a segment, a flow, a slice of requests, a sweep).
	cyclesPerS, opsPerS []float64

	// heapMB is the live Go heap once measurement ends, the workload's
	// state still referenced.
	heapMB float64

	layer map[string]float64
	// attempted counts operations and output checks, failed those that
	// went wrong; failures describes the first few.
	attempted, failed int
	failures          []string
}

// check counts one operation or one verification of the program's
// outputs.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// endToEndValues derives the declared end-to-end metrics. Every one is
// a median over equal units of fixed work, so a single slow unit does
// not move it; the tail is the median over slices of each slice's own
// tail percentile.
func endToEndValues(o *outcome) map[string]float64 {
	var p50, tl []float64
	for _, ops := range o.lat {
		lat := durs(ops, us)
		p50 = append(p50, median(lat))
		t, _ := tail(lat)
		tl = append(tl, t)
	}
	return map[string]float64{
		"setup_s":          median(durs(o.setups, time.Duration.Seconds)),
		"heap_mb":          o.heapMB,
		"sim_cycles_per_s": median(o.cyclesPerS),
		"op_p50_us":        median(p50),
		"op_tail_us":       median(tl),
		"ops_per_s":        median(o.opsPerS),
	}
}
