// Aggregation tree: a hotspot workload — four leaf producers stream
// measurements up a binary switch tree into one collector at the root.
// The root link is the bottleneck; the per-flow latency breakdown of
// the trace-driven receptor shows how fairly round-robin arbitration
// divides it, and the buffer-depth sweep shows what buffering buys on a
// converging (tree) pattern.
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"
	"os"

	"nocemu"
)

func build(lambda uint16, depth int) (*nocemu.Platform, error) {
	topo, err := nocemu.Tree(2, 2) // 7 switches: root 0, leaves 3..6
	if err != nil {
		return nil, err
	}
	leaves := nocemu.TreeLeaves(2, 2)
	cfg := nocemu.Config{
		Name:           "aggregation",
		Topology:       topo,
		SwitchBufDepth: depth,
	}
	for i, leaf := range leaves {
		src := nocemu.EndpointID(i)
		if err := topo.AddSource(src, leaf); err != nil {
			return nil, err
		}
		cfg.TGs = append(cfg.TGs, nocemu.TGSpec{
			Endpoint: src, Limit: 500,
			Gen: &nocemu.PoissonConfig{
				Lambda: lambda, LenMin: 2, LenMax: 4,
				Dst: nocemu.DstConfig{Policy: nocemu.DstFixed, Dsts: []nocemu.EndpointID{100}},
			},
		})
	}
	if err := topo.AddSink(100, 0); err != nil { // collector at the root
		return nil, err
	}
	cfg.TRs = []nocemu.TRSpec{{
		Endpoint: 100, Mode: nocemu.TraceDriven, ExpectPackets: 4 * 500,
	}}
	return nocemu.Build(cfg)
}

func main() {
	// Four producers, each ~0.09 packets/cycle of 3-flit average
	// packets: ~1.1 flits/cycle offered into a 1 flit/cycle root link.
	p, err := build(5900, 8)
	if err != nil {
		log.Fatal(err)
	}
	if _, done := p.Run(20_000_000); !done {
		log.Fatal("aggregation run did not finish")
	}
	tr, _ := p.TR(100)
	st := tr.Stats()
	fmt.Printf("collector: %d packets, mean latency %.1f cycles (max %.0f)\n\n",
		st.Packets, st.NetLatencyMean, st.NetLatencyMax)
	fmt.Println("per-producer fairness at the hotspot:")
	for i := 0; i < tr.Flows(); i++ {
		fl, _ := tr.Flow(i)
		fmt.Printf("  producer %d: %4d packets, latency mean %6.1f max %5.0f\n",
			fl.Src, fl.Packets, fl.Mean, fl.Max)
	}

	fmt.Println("\nbuffer-depth sweep (saturated hotspot):")
	fmt.Printf("%-8s %-14s %-14s\n", "depth", "mean latency", "run cycles")
	for _, depth := range []int{2, 4, 8, 16} {
		p, err := build(5900, depth)
		if err != nil {
			log.Fatal(err)
		}
		if _, done := p.Run(20_000_000); !done {
			log.Fatal("sweep run did not finish")
		}
		tr, _ := p.TR(100)
		fmt.Printf("%-8d %-14.1f %-14d\n", depth, tr.Stats().NetLatencyMean, p.Totals().Cycles)
	}

	fmt.Println()
	if err := nocemu.WriteReport(os.Stdout, p, nil); err != nil {
		log.Fatal(err)
	}
}
