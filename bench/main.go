// Command bench is the repository's benchmark: seven named workloads,
// each measured in a process of its own, reporting the end-to-end
// metrics of BENCHMARK.json from an untraced run and the per-layer
// metrics from a traced one. See README.md.
//
//	go run ./bench -seed 1                      every workload, both runs, bench/out/results.json
//	go run ./bench -workload serve_xfer -trace 1
//	go run ./bench -compare old.json new.json
package main

import (
	"crypto/sha256"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named set of inputs. The why lines are BENCHMARK.json's.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// op says what one latency sample is; README.md repeats it.
	op  string
	run func(e *env, name string) (*outcome, error)
}

var workloads = []workload{
	{"paper_flow", "the paper's own 6-switch platform through the six-step flow nocemu -paper runs: ten components, so per-component dispatch, gating bookkeeping, build and report dominate",
		"one flow.Run plus the JSON report", runPaper},
	{"mesh1024_light", "a 1024-node mesh at 2% load: the superlinear scale-down case, where park scan, wake lists and the cache footprint of 1k-element arenas set the cycle, behind the slowest build path",
		"one 400-cycle segment", runNet},
	{"mesh256_sat", "a 256-node mesh past saturation: nothing parks, so gating is pure overhead and switch arbitration carries the cycle; a gating win on mesh1024_light must not lose here",
		"one 1000-cycle segment", runNet},
	{"bfly256", "a flattened butterfly of 31x31-port switches: arbitration cost grows with radix squared, the most expensive flit-hop in the zoo",
		"one 250-cycle segment", runNet},
	{"serve_xfer", "the co-simulation oracle call: one session, closed loop, one client on one keep-alive loopback connection; per-call latency is the product",
		"one 64-byte xfer over HTTP", runServeXfer},
	{"serve_churn", "the serve layer used for lifecycle: open warm, xfer, park, resume, xfer, stats, close; platform pool, warm-snapshot cache, snapshot codec and park files",
		"one whole session, seven requests over HTTP", runServeChurn},
	{"sweep_grid", "what a nocsweep user waits for: a 24-point grid of short kernels with 8 forks each, so build, warm-up, snapshot, fork and journal fsync dominate the cycle loop",
		"one structural point of the sweep", runSweep},
}

// env is what a workload run is given.
type env struct {
	seed    uint32
	seconds int
	trace   bool
	sizes   sizes
	// rec times every measured call; in the traced run it keeps spans.
	rec          *recorder
	updateGolden bool
	// tmp is a scratch directory inside the checkout, removed at exit.
	tmp string
	// sweeps numbers the run's sweeps: journal files and span op ids.
	sweeps int
}

// scale turns a slice count frozen for refSeconds into the count for
// this run's -seconds; at least one slice always runs.
func (e *env) scale(atRef int) int {
	if n := atRef * e.seconds / refSeconds; n > 1 {
		return n
	}
	return 1
}

// Set-up is repeated while it is cheap, so that setup_s is a median
// wherever that is affordable.
const (
	setupRepeats = 5
	setupBudget  = 2 * time.Second
)

// setUp runs a workload's whole set-up, times it, and repeats it —
// dropping the previous result — within the budget above.
func setUp[T any](e *env, o *outcome, build func() (T, error), drop func(T)) (T, error) {
	var spent time.Duration
	for {
		var v T
		var err error
		d := e.rec.do("setup", len(o.setups), func() { v, err = build() })
		if err != nil {
			return v, err
		}
		o.setups = append(o.setups, d)
		spent += d
		if len(o.setups) == setupRepeats || spent+d > setupBudget {
			return v, nil
		}
		drop(v)
	}
}

// liveHeapMB is the Go heap still referenced after collection; the
// second cycle also empties the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

//go:embed golden/*.json
var goldenFS embed.FS

// goldenFile pins one workload's seed-1 output.
type goldenFile struct {
	Digest string `json:"digest"`
	// Of is what was digested: a Totals value, or the digest of a
	// sweep's row file.
	Of string `json:"of"`
}

// golden compares a workload's seed-1 output at the frozen sizes with
// the pinned digest, or rewrites the pin under -update-golden (run from
// the repository root). Other seeds and smoke sizes have no pin.
func (e *env) golden(o *outcome, name, output string) {
	if e.seed != 1 || e.sizes.SegsPerSlice != fullSizes.SegsPerSlice {
		return
	}
	path := "golden/" + name + ".json"
	got := goldenFile{Digest: digest(output), Of: output}
	if e.updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join("bench", path), append(b, '\n'), 0o644)
		}
		o.check(err == nil, "%s: update golden: %v", name, err)
		return
	}
	var want goldenFile
	b, err := goldenFS.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	o.check(err == nil && want.Digest == got.Digest, "%s: golden mismatch (%v): got %+v, pinned %+v", name, err, got, want)
}

func digest(text string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) }

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// samples states, for the untraced run, the sample count behind
	// op_p50_us and which percentile op_tail_us is.
	samples string
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Uint("seed", 1, "workload seed: platform and workload seeds, request permutation, sweep seed")
		seconds  = flag.Int("seconds", refSeconds, "measurement length the slice counts are scaled to")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace_<workload>.jsonl")
		smoke    = flag.Bool("smoke", false, "tiny sizes that only exercise the code paths")
		update   = flag.Bool("update-golden", false, "rewrite bench/golden from this run (seed 1)")
		compare  = flag.Bool("compare", false, "compare two results.json files: -compare old.json new.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as this program declares it")
		runs     = flag.Int("runs", 1, "with no -workload: untraced runs per workload (their spread decides 'unresolved' in -compare)")
		out      = flag.String("out", "bench/out", "with no -workload: directory for results.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	var err error
	switch {
	case *manifest:
		err = printManifest()
	case *compare:
		err = compareFiles(flag.Args())
	case *name == "":
		err = runAll(uint32(*seed), *seconds, *runs, *smoke, *update, *out)
	default:
		err = runOne(*name, uint32(*seed), *seconds, *trace == 1, *smoke, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints every metric
// by name, then the result object as the last line.
func runOne(name string, seed uint32, seconds int, trace, smoke, update bool) error {
	res, rec, err := measure(name, seed, seconds, trace, smoke, update)
	if err != nil {
		return err
	}
	decl := endToEnd
	if trace {
		decl = perLayer
	}
	for _, m := range decl {
		fmt.Printf("%-16s %-30s %14.6g %s\n", name, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Print(res.samples)
	if trace {
		printSelfTimes(rec)
		if err := os.MkdirAll("bench/out", 0o755); err != nil {
			return err
		}
		if err := rec.write(filepath.Join("bench/out", "trace_"+name+".jsonl")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload once and assembles its declared metrics;
// failed checks go to stderr.
func measure(name string, seed uint32, seconds int, trace, smoke, update bool) (*result, *recorder, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, seconds: seconds, trace: trace, sizes: fullSizes, rec: newRecorder(trace), updateGolden: update, tmp: tmp}
	if smoke {
		e.sizes = smokeSizes
	}
	o, err := w.run(e, name)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}

	f := sorted(e.rec.factors)
	fmt.Fprintf(os.Stderr, "%s: host speed %.3f (median of %d calibrations, %.3f to %.3f) of the reference\n",
		name, median(f), len(f), f[0], f[len(f)-1])

	decl, values := endToEnd, endToEndValues(o)
	if trace {
		decl, values = perLayer, o.layer
		values["trace.spans"] = float64(len(e.rec.spans))
		values["bench.host_speed"] = median(e.rec.factors)
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Correct: o.failed == 0, Metrics: map[string]measured{}}
	if !trace {
		_, pct := tail(make([]float64, len(o.lat[0])))
		res.samples = fmt.Sprintf("%-16s one op is %s: %d slices of %d samples, op_tail_us is their p%.4g\n",
			name, w.op, len(o.lat), len(o.lat[0]), pct)
	}
	for _, m := range decl {
		res.Metrics[m.Name] = measured{values[m.Name], m.Unit}
	}
	return res, e.rec, nil
}

// printSelfTimes lists, per span name, the time spent in it and not in
// its children.
func printSelfTimes(r *recorder) {
	self := selfTimes(r.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self %-28s %12.3f ms\n", n, ms(self[n]))
	}
}
