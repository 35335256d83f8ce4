// Command nocbench regenerates the paper's evaluation artifacts — the
// two tables and four figures of the DATE 2005 paper — printing each as
// a text table with the paper's reported values alongside.
//
//	nocbench                          # everything
//	nocbench -exp t2,f4               # a subset
//	nocbench -csv results/            # also dump the figure series as CSV
//	nocbench -exp t2 -cpuprofile c.pb # profile the selected runs (pprof)
//
// Speed tracking is not this command's job: the repository's benchmark
// is `go run ./bench` (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"nocemu/internal/experiments"
	"nocemu/internal/monitor"
	"nocemu/internal/stats"
)

func main() {
	var (
		exps    = flag.String("exp", "t1,t2,f1,f2,f3,f4,scale,sat,vc,buf", "comma-separated experiments to run (t1,t2,f1..f4,scale,sat,vc,buf; 'none' skips all)")
		csvDir  = flag.String("csv", "", "directory to write figure series as CSV")
		gate    = flag.Bool("gate", true, "quiescence-aware scheduling in the t2 speed rows (ablation: -gate=false; results are identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile (after the selected runs) to this file")
	)
	flag.Parse()

	selected := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(selected, *csvDir, !*gate); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report live objects, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
	}
}

func run(selected map[string]bool, csvDir string, noGate bool) error {
	writeCSV := func(name string, series ...stats.Series) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return monitor.WriteSeriesCSV(f, series...)
	}

	if selected["t1"] {
		fmt.Println("=== Table 1: FPGA resources per device (slide 17) ===")
		res, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["t2"] {
		fmt.Println("=== Table 2: simulation speed comparison (slide 18) ===")
		res, err := experiments.Table2(experiments.Table2Options{NoGate: noGate})
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["f1"] {
		fmt.Println("=== Figure 1: experimental setup link loads (slide 19) ===")
		res, err := experiments.Figure1(0, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["f2"] {
		fmt.Println("=== Figure 2: run-time vs packets sent (slide 20) ===")
		res, err := experiments.Figure2(nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		if err := writeCSV("figure2.csv", res.Uniform, res.Burst); err != nil {
			return err
		}
	}
	if selected["f3"] {
		fmt.Println("=== Figure 3: congestion vs packets/burst (slide 21) ===")
		res, err := experiments.Figure3(nil, nil, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		var series []stats.Series
		for _, c := range res.Curves {
			series = append(series, c.Series)
		}
		if err := writeCSV("figure3.csv", series...); err != nil {
			return err
		}
	}
	if selected["scale"] {
		fmt.Println("=== Extension: platform scaling (paper conclusion) ===")
		res, err := experiments.Scale(nil, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["sat"] {
		fmt.Println("=== Extension: load/latency saturation on the reference platform ===")
		res, err := experiments.Saturation(nil, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		if err := writeCSV("saturation.csv", res.Latency, res.Throughput); err != nil {
			return err
		}
	}
	if selected["buf"] {
		fmt.Println("=== Extension: buffer-depth trade-off (the third switch parameter) ===")
		res, err := experiments.BufferStudy(nil, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["vc"] {
		fmt.Println("=== Extension: wormhole vs 2-VC dateline on the torus rings (torus:w=4,h=4,minimal=1, vcs=1 vs vcs=2) ===")
		res, err := experiments.VCStudy(nil, 0, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	}
	if selected["f4"] {
		fmt.Println("=== Figure 4: average latency vs packets/burst (slide 22) ===")
		res, err := experiments.Figure4(nil, 0, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		if err := writeCSV("figure4.csv", res.Series); err != nil {
			return err
		}
	}
	return nil
}
