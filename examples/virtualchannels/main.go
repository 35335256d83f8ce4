// Virtual channels: one parameter of the platform's switch, reached
// through the topology spec. Minimal routing on a torus closes a cycle
// of channel dependencies around every ring, so on a single channel the
// deadlock checker rejects it — and, built anyway, the rings wedge
// under load (caught live by the platform watchdog). The same spec with
// vcs=2 routes on dateline classes, passes the checker and completes.
//
//	go run ./examples/virtualchannels
package main

import (
	"fmt"
	"log"

	"nocemu/internal/experiments"
	"nocemu/internal/platform"
	"nocemu/internal/topology"
)

const (
	perSource = 20
	pktLen    = 16
)

func main() {
	fmt.Printf("%s: every switch streams %d packets of %d flits two hops east, 2-flit buffers\n",
		experiments.VCStudyTopo, perSource, pktLen)

	// The spec alone, one channel: rejected at build.
	cfg, err := experiments.VCStudyConfig(1, perSource, pktLen)
	check(err)
	cfg.AllowDeadlock = false
	_, err = platform.Build(cfg)
	fmt.Printf("\nvcs=1, deadlock check on: %v\n", err)

	done1 := run(1)
	done2 := run(2)
	if !done1 && done2 {
		fmt.Println("\nthe dateline classes broke the cyclic channel dependency")
	}
}

// run builds the study network with the given channel count, runs it
// under a watchdog and reports what arrived.
func run(vcs int) bool {
	cfg, err := experiments.VCStudyConfig(vcs, perSource, pktLen)
	check(err)
	p, err := platform.Build(cfg)
	check(err)
	wd, err := p.AttachWatchdog(1_000)
	check(err)
	cycles, done := p.Run(100_000)
	fmt.Printf("\n%s: done=%v after %d cycles\n",
		experiments.VCStudyTopo.With(topology.ParamVCs, vcs), done, cycles)
	if stalled, at := wd.Stalled(); stalled {
		fmt.Printf("  watchdog: flits in flight but no receptor progress, aborted at cycle %d\n", at)
	}
	t := p.Totals()
	fmt.Printf("  delivered %d of %d packets\n", t.PacketsReceived, len(cfg.TGs)*perSource)
	p.Drain()
	fmt.Printf("  flits left in the pool after drain: %d\n", p.Pool().Live())
	return done
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
