// Command nocemu runs a NoC emulation and prints the monitor report —
// the paper's flow steps 1-6 behind one binary.
//
// Run the paper's reference platform:
//
//	nocemu -paper -traffic burst -packets 10000
//
// or a platform described in JSON (see cmd/nocgen -example-config):
//
//	nocemu -config platform.json -cycles 1000000
//
// or a synthetic platform from the topology/workload zoo:
//
//	nocemu -topo fattree:k=16 -wl hotspot -inj 0.2 -cycles 100000
//
// Output selection: -json for machine-readable results, -hist to append
// ASCII histograms, -no-synthesis to skip the area estimate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nocemu/internal/control"
	"nocemu/internal/flow"
	"nocemu/internal/jsonio"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/topology"
	"nocemu/internal/trace"
	"nocemu/internal/traffic"
)

func main() {
	var (
		configPath = flag.String("config", "", "JSON platform configuration file")
		paper      = flag.Bool("paper", false, "run the paper's 6-switch reference platform")
		topoSpec   = flag.String("topo", "", "build a synthetic platform over this topology spec, e.g. mesh:w=8,h=8 or fattree:k=16 (see `nocgen topos` for the catalog)")
		workload   = flag.String("wl", "uniform", "workload recipe for -topo platforms: "+strings.Join(traffic.WorkloadKinds(), ", "))
		inj        = flag.Float64("inj", 0.1, "offered load per terminal in flits/cycle (-topo platforms)")
		flavor     = flag.String("traffic", "uniform", "paper traffic flavor: uniform, burst, poisson, trace")
		packets    = flag.Uint64("packets", 1000, "packets per traffic generator (0 = unlimited)")
		load       = flag.Float64("load", 0.45, "offered load per TG in flits/cycle (paper platform)")
		flits      = flag.Int("flits", 9, "flits per packet (paper platform)")
		burst      = flag.Int("burst", 8, "packets per burst (paper trace traffic)")
		bufDepth   = flag.Int("buf", 8, "switch input buffer depth (paper platform)")
		seed       = flag.Uint("seed", 1, "platform seed")
		cycles     = flag.Uint64("cycles", 10_000_000, "maximum emulated cycles")
		gate       = flag.Bool("gate", true, "quiescence-aware scheduling (clock gating); false is the ablation, results are identical either way")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of the text report")
		hist       = flag.Bool("hist", false, "append receptor histograms")
		noSynth    = flag.Bool("no-synthesis", false, "skip the FPGA area estimate")
		recordDir  = flag.String("record-dir", "", "record every receptor's arrivals and write one trace file per receptor into this directory")
		doTrace    = flag.Bool("trace", false, "enable event tracing (also appends the trace-metrics report)")
		traceOut   = flag.String("trace-out", "", "write the event trace to this file (JSONL, or VCD with a .vcd suffix; implies -trace)")
		traceWin   = flag.Uint64("trace-window", 0, "trace metrics sampling window in cycles (0 = default)")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "snapshot the platform every K cycles (0 = off)")
		ckptOut    = flag.String("checkpoint-out", "", "directory for periodic checkpoint-<cycle>.nocsnap files (default .)")
		restore    = flag.String("restore", "", "warm-start the run from a .nocsnap snapshot file")
	)
	flag.Parse()

	cfg, run, err := buildConfig(*configPath, *paper, *topoSpec, *workload, *inj, *flavor, *packets, *load, *flits, *burst, *bufDepth, uint32(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocemu:", err)
		os.Exit(1)
	}
	// Flags override the config file's run-control keys.
	if *ckptEvery != 0 {
		run.CheckpointEvery = *ckptEvery
	}
	if *restore != "" {
		run.Restore = *restore
	}
	if *recordDir != "" {
		for i := range cfg.TRs {
			cfg.TRs[i].RecordTrace = true
		}
	}
	// Only an explicit -gate overrides the config's "no_gate" field.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gate" {
			cfg.NoGate = !*gate
		}
	})
	if (*doTrace || *traceOut != "" || *traceWin != 0) && cfg.Trace == nil {
		cfg.Trace = &probe.Config{}
	}
	if *traceWin != 0 {
		cfg.Trace.Window = *traceWin
	}

	rep, err := flow.Run(cfg, control.Program{}, flow.Options{
		MaxCycles: *cycles,
		// Zoo platforms (-topo, or a JSON workload object) don't target
		// the paper's FPGA; the area estimate would reject any large
		// instance, so those paths skip it.
		SkipSynthesis:   *noSynth || run.SkipSynthesis,
		Restore:         run.Restore,
		CheckpointEvery: run.CheckpointEvery,
		CheckpointDir:   *ckptOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocemu:", err)
		os.Exit(1)
	}

	if *jsonOut {
		if err := monitor.WriteJSON(os.Stdout, rep.Platform); err != nil {
			fmt.Fprintln(os.Stderr, "nocemu:", err)
			os.Exit(1)
		}
	} else {
		if err := monitor.WriteReport(os.Stdout, rep.Platform, rep.Synthesis); err != nil {
			fmt.Fprintln(os.Stderr, "nocemu:", err)
			os.Exit(1)
		}
		fmt.Printf("\nemulation speed: %.3g cycles/s (wall %v for %d cycles)\n",
			rep.CyclesPerSecond, rep.Wall.Round(1000), rep.Exec.CyclesRun)
	}
	if *hist {
		if err := monitor.WriteHistograms(os.Stdout, rep.Platform, 50); err != nil {
			fmt.Fprintln(os.Stderr, "nocemu:", err)
			os.Exit(1)
		}
	}
	if *recordDir != "" {
		if err := writeRecordings(rep.Platform, *recordDir); err != nil {
			fmt.Fprintln(os.Stderr, "nocemu:", err)
			os.Exit(1)
		}
	}
	if cfg.Trace != nil {
		if !*jsonOut {
			fmt.Println()
			if err := monitor.WriteTraceMetrics(os.Stdout, rep.Platform); err != nil {
				fmt.Fprintln(os.Stderr, "nocemu:", err)
				os.Exit(1)
			}
		}
		if *traceOut != "" {
			if err := writeTrace(rep.Platform, *traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "nocemu:", err)
				os.Exit(1)
			}
		}
	}
}

// writeTrace exports the collected event stream: JSONL by default, VCD
// when the path ends in .vcd.
func writeTrace(p *platform.Platform, path string) error {
	c := p.Probe()
	if c == nil {
		return fmt.Errorf("no trace collector on this platform")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".vcd" {
		err = c.WriteVCD(f)
	} else {
		err = c.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeRecordings saves every receptor's recorded arrival trace as
// <dir>/<receptor>.trace — the paper's trace-recording workflow: these
// files feed trace-driven generators in later runs.
func writeRecordings(p *platform.Platform, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tr := range p.TRs() {
		rec := tr.Recorded()
		if rec == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, tr.ComponentName()+".trace"))
		if err != nil {
			return err
		}
		if err := trace.Write(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func buildConfig(path string, paper bool, topoSpec, workload string, inj float64, traffic string, packets uint64, load float64, flits, burst, bufDepth int, seed uint32) (platform.Config, jsonio.RunSpec, error) {
	switch {
	case path != "":
		return jsonio.LoadFileRun(path)
	case topoSpec != "":
		spec, err := topology.ParseSpec(topoSpec)
		if err != nil {
			return platform.Config{}, jsonio.RunSpec{}, err
		}
		cfg, err := platform.NetConfig(platform.NetOptions{
			Topo:         spec,
			Workload:     workload,
			Injection:    inj,
			PacketsPerTG: packets,
			Seed:         seed,
		})
		return cfg, jsonio.RunSpec{SkipSynthesis: true}, err
	case paper:
		cfg, err := platform.PaperConfig(platform.PaperOptions{
			Traffic:         platform.PaperTraffic(traffic),
			PacketsPerTG:    packets,
			Load:            load,
			FlitsPerPacket:  flits,
			PacketsPerBurst: burst,
			BufDepth:        bufDepth,
			Seed:            seed,
		})
		return cfg, jsonio.RunSpec{}, err
	default:
		return platform.Config{}, jsonio.RunSpec{}, fmt.Errorf("pass -config FILE, -topo SPEC or -paper (see -help)")
	}
}
