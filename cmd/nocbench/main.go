// Command nocbench regenerates the paper's two tables and four figures,
// and four extension studies, each as a text table beside the paper's values.
//
//	nocbench                            # everything, in table order
//	nocbench -exp f4,t2 -csv results/   # a subset, figure series as CSV
//	nocbench -exp t2 -cpuprofile c.pb   # profile the selected runs (pprof)
//
// Speed is not measured here: that is `go run ./bench` (bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	var keys []string
	for _, a := range experiments.Artifacts {
		keys = append(keys, a.Key)
	}
	var (
		exps    = flag.String("exp", strings.Join(keys, ","), "comma-separated experiments to run, printed in this order ('none' skips all)")
		csvDir  = flag.String("csv", "", "directory to write figure series as CSV")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile (after the selected runs) to this file")
	)
	flag.Parse()
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		defer f.Close()
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	check(run(os.Stdout, *exps, *csvDir))
	if *memProf != "" {
		f, err := os.Create(*memProf)
		check(err)
		defer f.Close()
		runtime.GC() // report live objects, not garbage
		check(pprof.WriteHeapProfile(f))
	}
}

// run prints the artifacts exp names, in table order, and writes each
// figure's series under csvDir when it is set. Every key resolves first.
func run(w io.Writer, exp, csvDir string) error {
	arts, err := experiments.Select(exp)
	if err != nil {
		return err
	}
	for _, a := range arts {
		fmt.Fprintf(w, "=== %s ===\n", a.Title)
		r, err := a.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r.Table())
		if p, ok := r.(interface{ CSV() []stats.Series }); ok && csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(csvDir, a.CSV))
			if err != nil {
				return err
			}
			if err := errors.Join(monitor.WriteSeriesCSV(f, p.CSV()...), f.Close()); err != nil {
				return err
			}
		}
	}
	return nil
}
