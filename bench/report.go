package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

func declared() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func printManifest() error {
	b, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// host is the fingerprint results are only comparable within.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func fingerprint() host {
	h := host{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// results is bench/out/results.json: every run of a full set.
type results struct {
	Host      host                       `json:"host"`
	Seed      uint32                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// EndToEnd holds one value per untraced run, in run order.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
	// Attempted and Failed are summed over all runs.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// runAll runs every workload in child processes of this binary — a
// fresh heap and GC state each — untraced `runs` times, then traced
// once, and writes the collected results.
func runAll(seed uint32, seconds, runs int, smoke, update bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{
		Host: fingerprint(), Seed: seed, Seconds: seconds, Sizes: fullSizes,
		Workloads: map[string]*workloadResult{},
	}
	if smoke {
		all.Sizes = smokeSizes
	}
	child := func(name string, trace int) (*result, error) {
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if smoke {
			args = append(args, "-smoke")
		}
		if update && trace == 0 {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return nil, fmt.Errorf("%s -trace %d: %w", name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s -trace %d: last line: %w", name, trace, err)
		}
		return &r, nil
	}
	failed := 0
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		all.Workloads[w.Name] = wr
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			r, err := child(w.Name, trace)
			if err != nil {
				return err
			}
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for name, m := range r.Metrics {
				if trace == 1 {
					wr.PerLayer[name] = m.Value
				} else {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				}
			}
		}
		failed += wr.Failed
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, how the new
// results' median differs from the old one's, judged by the metric's
// bound. A pair whose own run-to-run spread, on either side, exceeds
// the bound is unresolved, not unchanged. It fails on a regression, on
// a higher failure ratio, and on simulated counts that moved.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare old.json new.json")
	}
	var old, cur results
	for i, r := range []*results{&old, &cur} {
		b, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(b, r)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
	}
	if old.Host != cur.Host {
		fmt.Printf("note: hosts differ: %+v vs %+v\n", old.Host, cur.Host)
	}
	bad := 0
	fmt.Printf("%-16s %-18s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "old", "new", "worse", "spr.old", "spr.new", "bound", "verdict")
	for _, w := range workloads {
		o, n := old.Workloads[w.Name], cur.Workloads[w.Name]
		if o == nil || n == nil {
			fmt.Printf("%-16s missing on one side\n", w.Name)
			bad++
			continue
		}
		for _, m := range endToEnd {
			a, b := median(o.EndToEnd[m.Name]), median(n.EndToEnd[m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(o.EndToEnd[m.Name]), spread(n.EndToEnd[m.Name])
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, a, b, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		if fo, fn := ratio(o.Failed, o.Attempted), ratio(n.Failed, n.Attempted); fn > fo {
			fmt.Printf("%-16s failure ratio rose from %g to %g  REGRESSION\n", w.Name, fo, fn)
			bad++
		}
		for _, m := range perLayer {
			exact := strings.HasPrefix(m.Name, "sim.") || m.Name == "flit.pool_live" || m.Name == "dse.rows"
			if exact && o.PerLayer[m.Name] != n.PerLayer[m.Name] {
				fmt.Printf("%-16s %-18s %14.6g %14.6g  simulated count MOVED\n", w.Name, m.Name, o.PerLayer[m.Name], n.PerLayer[m.Name])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

func ratio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
