package main

// Frozen work sizes. Work is fixed, never time-boxed, so simulated
// counts repeat exactly for a seed; the sizes are chosen so that on the
// reference host (go1.24, 2 cores) each workload measures for about
// refSeconds at -seconds refSeconds. -seconds only scales the number of
// slices (env.scale), never the work inside one. Later issues compare
// against numbers taken at these sizes: change them only in a PR that
// changes nothing else.

// refSeconds is the -seconds value the slice counts below are for; it
// is run_seconds in BENCHMARK.json.
const refSeconds = 8

type netSize struct {
	Topo string  `json:"topo"`
	Inj  float64 `json:"injection"`
	// Warm cycles run before measurement; Seg is one timed segment.
	Warm uint64 `json:"warm_cycles"`
	Seg  uint64 `json:"segment_cycles"`
}

type paperSize struct {
	Load         float64 `json:"load"`
	PacketsPerTG uint64  `json:"packets_per_tg"`
}

type serveSize struct {
	Topo       string  `json:"topo"`
	Workload   string  `json:"workload"`
	Inj        float64 `json:"injection"`
	Warmup     uint64  `json:"warmup_cycles"`
	XferBytes  uint64  `json:"xfer_bytes"`
	XferSlices int     `json:"xfer_slices"`
	// XfersPerSlice transfers, or SessionsPerSlice whole session
	// lifecycles, make one slice.
	XfersPerSlice    int `json:"xfers_per_slice"`
	ChurnSlices      int `json:"churn_slices"`
	SessionsPerSlice int `json:"sessions_per_slice"`
	// ColdOpens is how many uncached opens the traced run times.
	ColdOpens int `json:"cold_opens"`
}

type sweepSize struct {
	Topos   []string  `json:"topos"`
	Depths  []int     `json:"depths"`
	Injs    []float64 `json:"injections"`
	Forks   int       `json:"forks"`
	Warm    uint64    `json:"warm_cycles"`
	Measure uint64    `json:"measure_cycles"`
	Sweeps  int       `json:"sweeps"`
}

type sizes struct {
	RefSeconds int `json:"ref_seconds"`
	// SegsPerSlice is the number of equal kernel segments (or flows)
	// timed per slice: 40 samples put the reported tail at p75.
	SegsPerSlice int                `json:"segments_per_slice"`
	Paper        paperSize          `json:"paper_flow"`
	Net          map[string]netSize `json:"net"`
	Serve        serveSize          `json:"serve"`
	Sweep        sweepSize          `json:"sweep_grid"`
}

var fullSizes = sizes{
	RefSeconds:   refSeconds,
	SegsPerSlice: 40,
	Paper:        paperSize{Load: 0.45, PacketsPerTG: 9000},
	Net: map[string]netSize{
		"mesh1024_light": {Topo: "mesh:w=32,h=32", Inj: 0.02, Warm: 2000, Seg: 400},
		"mesh256_sat":    {Topo: "mesh:w=16,h=16", Inj: 0.30, Warm: 2000, Seg: 1000},
		"bfly256":        {Topo: "butterfly:w=16,h=16", Inj: 0.10, Warm: 500, Seg: 250},
	},
	Serve: serveSize{
		Topo: "mesh:w=4,h=4", Workload: "uniform", Inj: 0.1, Warmup: 20000, XferBytes: 64,
		XferSlices: 10, XfersPerSlice: 2000,
		ChurnSlices: 8, SessionsPerSlice: 500,
		ColdOpens: 8,
	},
	Sweep: sweepSize{
		Topos:  []string{"mesh:w=4,h=4", "torus:w=4,h=4"},
		Depths: []int{2, 4, 8}, Injs: []float64{0.05, 0.10, 0.20, 0.30},
		Forks: 8, Warm: 8000, Measure: 1000, Sweeps: 4,
	},
}

// smokeSizes keep every code path but finish in a few seconds in all;
// bench_test.go runs them. Their numbers mean nothing.
var smokeSizes = sizes{
	RefSeconds:   refSeconds,
	SegsPerSlice: 4,
	Paper:        paperSize{Load: 0.45, PacketsPerTG: 100},
	Net: map[string]netSize{
		"mesh1024_light": {Topo: "mesh:w=6,h=6", Inj: 0.02, Warm: 100, Seg: 50},
		"mesh256_sat":    {Topo: "mesh:w=4,h=4", Inj: 0.30, Warm: 100, Seg: 50},
		"bfly256":        {Topo: "butterfly:w=3,h=3", Inj: 0.10, Warm: 100, Seg: 50},
	},
	Serve: serveSize{
		Topo: "mesh:w=4,h=4", Workload: "uniform", Inj: 0.1, Warmup: 500, XferBytes: 64,
		XferSlices: 1, XfersPerSlice: 20,
		ChurnSlices: 1, SessionsPerSlice: 4,
		ColdOpens: 1,
	},
	Sweep: sweepSize{
		Topos:  []string{"mesh:w=3,h=3", "torus:w=3,h=3"},
		Depths: []int{2}, Injs: []float64{0.10},
		Forks: 2, Warm: 100, Measure: 50, Sweeps: 1,
	},
}
