// Command nocsweep drives the design-space exploration engine
// (internal/dse): it sweeps topology spec × workload × buffer depth ×
// injection rate through a fork-amortized worker pool, evaluates
// latency / throughput / area per point, and writes one JSONL row per
// (point, fork) plus the aggregated Pareto front.
//
//	nocsweep -topo mesh:w=4,h=4 -depth 2,4,8 -inj 0.05,0.1,0.2
//	nocsweep -config sweep.json -out results.jsonl -pareto pareto.jsonl
//	nocsweep -config sweep.json -journal sweep.journal   # resumable
//
// With -journal, completed points stream to the journal as they land
// and a killed sweep continues where it stopped (a journal belongs to
// one sweep configuration); with -cache, warmed platform snapshots
// persist under a key of everything their state depends on, so later
// sweeps skip warm-up too. The canonical results (key-sorted JSONL) go
// to -out (default stdout); the front goes to -pareto when given. A
// summary line lands on stderr: grid size, evaluated/resumed/pruned
// points, front size, points per minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"nocemu/internal/dse"
	"nocemu/internal/jsonio"
	"nocemu/internal/topology"
)

func main() {
	var (
		config  = flag.String("config", "", "sweep configuration JSON (jsonio.SweepFile); flags override its scalar fields")
		topos   = flag.String("topo", "", "semicolon-separated topology specs (kind:p=1,q=2;kind2:...)")
		wls     = flag.String("wl", "", "comma-separated workload kinds")
		depths  = flag.String("depth", "", "comma-separated switch buffer depths")
		injs    = flag.String("inj", "", "comma-separated injection rates (flits/node/cycle)")
		forks   = flag.Int("forks", 0, "seed replicates per structural point")
		warm    = flag.Uint64("warm", 0, "warm-up cycles before measurement")
		cycles  = flag.Uint64("cycles", 0, "measured cycles per point")
		seed    = flag.Uint("seed", 0, "platform base seed")
		workers = flag.Int("workers", 0, "sweep worker pool size (points evaluated at once; their kernels share one budget of helper goroutines)")
		pwork   = flag.Int("platform-workers", 0, "per-platform kernel workers, forced on every cycle (0 = the default kernel, which pools only a large platform's busy stretches)")
		search  = flag.String("search", "", "search mode: grid or pareto")
		objs    = flag.String("objectives", "", "comma-separated Pareto objectives (latency, throughput, area)")
		journal = flag.String("journal", "", "JSONL journal for streaming results and resuming killed sweeps; belongs to one sweep configuration (rows are matched by key: another -warm/-cycles is an error, another -seed or packet length cannot be detected)")
		cache   = flag.String("cache", "", "directory for warmed .nocsnap snapshots, keyed by the whole warmed state (point, seeds, packet length, fault specs, warm-up); sweeps may share it")
		out     = flag.String("out", "", "canonical key-sorted results JSONL (default stdout)")
		pareto  = flag.String("pareto", "", "write the aggregated Pareto front as JSONL to this file")
		quiet   = flag.Bool("q", false, "suppress per-point progress lines")
	)
	flag.Parse()
	if err := run(*config, *topos, *wls, *depths, *injs, *forks, *warm, *cycles,
		uint32(*seed), *workers, *pwork, *search, *objs, *journal, *cache, *out, *pareto, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "nocsweep:", err)
		os.Exit(1)
	}
}

func run(config, topos, wls, depths, injs string, forks int, warm, cycles uint64,
	seed uint32, workers, pwork int, search, objs, journal, cache, out, pareto string, quiet bool) error {
	var cfg dse.Config
	if config != "" {
		var err error
		if cfg, err = jsonio.LoadSweepFile(config); err != nil {
			return err
		}
	}
	if topos != "" {
		cfg.Axes.Topos = nil
		// Specs contain commas (mesh:w=4,h=4), so the topology list
		// separator is the semicolon.
		for _, text := range splitOn(topos, ";") {
			spec, err := topology.ParseSpec(text)
			if err != nil {
				return err
			}
			cfg.Axes.Topos = append(cfg.Axes.Topos, spec)
		}
	}
	if wls != "" {
		cfg.Axes.Workloads = splitList(wls)
	}
	if depths != "" {
		cfg.Axes.BufDepths = nil
		for _, text := range splitList(depths) {
			d, err := strconv.Atoi(text)
			if err != nil {
				return fmt.Errorf("bad depth %q: %v", text, err)
			}
			cfg.Axes.BufDepths = append(cfg.Axes.BufDepths, d)
		}
	}
	if injs != "" {
		cfg.Axes.Injections = nil
		for _, text := range splitList(injs) {
			inj, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return fmt.Errorf("bad injection %q: %v", text, err)
			}
			cfg.Axes.Injections = append(cfg.Axes.Injections, inj)
		}
	}
	if forks > 0 {
		cfg.Forks = forks
	}
	if warm > 0 {
		cfg.WarmupCycles = warm
	}
	if cycles > 0 {
		cfg.MeasureCycles = cycles
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	if pwork > 0 {
		cfg.PlatformWorkers = pwork
	}
	if search != "" {
		cfg.Search = dse.Search(search)
	}
	if objs != "" {
		cfg.Objectives = splitList(objs)
	}
	if journal != "" {
		cfg.Journal = journal
	}
	if cache != "" {
		cfg.CacheDir = cache
	}
	if !quiet {
		cfg.Log = os.Stderr
	}

	res, err := dse.Sweep(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := dse.WriteRows(w, res.Rows); err != nil {
		return err
	}
	if pareto != "" {
		f, err := os.Create(pareto)
		if err != nil {
			return err
		}
		if err := dse.WriteFront(f, res.Front); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr,
		"nocsweep: grid=%d evaluated=%d resumed=%d pruned=%d cache-hits=%d front=%d rows=%d elapsed=%s points/min=%.1f\n",
		res.GridSize, res.Evaluated, res.Resumed, res.Pruned, res.CacheHits,
		len(res.Front), len(res.Rows), res.Elapsed.Round(time.Millisecond), res.PointsPerMin)
	return nil
}

// splitList splits a comma-separated flag value, trimming whitespace.
func splitList(text string) []string {
	return splitOn(text, ",")
}

func splitOn(text, sep string) []string {
	var out []string
	for _, item := range strings.Split(text, sep) {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
