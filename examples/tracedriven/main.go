// Trace-driven emulation: the workload the paper's introduction
// motivates — validating a candidate NoC against traffic recorded from
// a real application. Here a synthetic "video pipeline" trace (bursty
// frame traffic plus a control stream) is replayed through a 4-switch
// ring, and the trace-driven receptors report per-flow latency and
// congestion.
//
//	go run ./examples/tracedriven
package main

import (
	"fmt"
	"log"
	"os"

	"nocemu"
)

func main() {
	// A DMA-style producer streams frame bursts to a consumer while a
	// small control flow crosses it; both share ring links.
	topo, err := nocemu.Ring(4)
	if err != nil {
		log.Fatal(err)
	}
	// Producer on switch 0, control master on switch 1; frame sink on
	// switch 2, control sink on switch 3.
	mustAttach(topo.AddSource(0, 0))
	mustAttach(topo.AddSource(1, 1))
	mustAttach(topo.AddSink(100, 2))
	mustAttach(topo.AddSink(101, 3))

	// "Recorded" traffic: 16-packet frame bursts of 8 flits at 40%
	// average load, and sparse 2-flit control messages.
	frames, err := nocemu.SynthBurstTrace(nocemu.BurstTraceConfig{
		Name: "video-frames", Dst: 100,
		NumBursts: 40, PacketsPerBurst: 16, FlitsPerPacket: 8,
		Load: 0.40,
	})
	if err != nil {
		log.Fatal(err)
	}
	controlMsgs, err := nocemu.SynthCBRTrace(nocemu.CBRTraceConfig{
		Name: "control", Dst: 101,
		NumPackets: 200, Len: 2, Period: 64,
	})
	if err != nil {
		log.Fatal(err)
	}

	p, err := nocemu.Build(nocemu.Config{
		Name:     "video-ring",
		Topology: topo,
		TGs: []nocemu.TGSpec{
			{Endpoint: 0, Gen: &nocemu.TraceConfig{Trace: frames}},
			{Endpoint: 1, Gen: &nocemu.TraceConfig{Trace: controlMsgs}},
		},
		TRs: []nocemu.TRSpec{
			{Endpoint: 100, Mode: nocemu.TraceDriven, ExpectPackets: 40 * 16},
			{Endpoint: 101, Mode: nocemu.TraceDriven, ExpectPackets: 200},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, done := p.Run(10_000_000); !done {
		log.Fatal("emulation did not finish")
	}

	for _, ep := range []nocemu.EndpointID{100, 101} {
		tr, _ := p.TR(ep)
		st := tr.Stats()
		fmt.Printf("flow -> %d: %d packets, latency mean %.1f / max %.0f cycles, congestion %d cycles\n",
			ep, st.Packets, st.NetLatencyMean, st.NetLatencyMax, st.CongestionCycles)
	}
	fmt.Println()
	if err := nocemu.WriteHistograms(os.Stdout, p, 40); err != nil {
		log.Fatal(err)
	}
}

func mustAttach(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
