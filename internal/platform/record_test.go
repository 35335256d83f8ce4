package platform

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// TestRecordAndReplayLoop closes the paper's trace workflow: traffic
// observed at a receptor in one emulation is recorded and replayed by a
// trace-driven generator in a second emulation, reproducing the same
// packet population with the recorded timing.
func TestRecordAndReplayLoop(t *testing.T) {
	// Run 1: bursty stochastic traffic into a recording receptor.
	cfg, err := PaperConfig(PaperOptions{Traffic: PaperBurst, PacketsPerTG: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.TRs {
		cfg.TRs[i].RecordTrace = true
	}
	p1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p1.Run(2_000_000); !stopped {
		t.Fatal("recording run did not finish")
	}
	tr100, _ := p1.TR(100)
	rec := tr100.Recorded()
	if rec == nil {
		t.Fatal("no recorded trace")
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	if len(rec.Records) != 120 {
		t.Fatalf("recorded %d packets, want 120", len(rec.Records))
	}
	if rec.TotalFlits() != 120*9 {
		t.Errorf("recorded flits = %d", rec.TotalFlits())
	}

	// A non-recording receptor has no trace.
	cfg2, err := PaperConfig(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	trNo, _ := p2.TR(100)
	if trNo.Recorded() != nil {
		t.Error("trace recorded without RecordTrace")
	}

	// Run 2: replay the recorded trace on a fresh two-switch platform.
	topo, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSink(100, 1); err != nil {
		t.Fatal(err)
	}
	replay, err := Build(Config{
		Name:     "replay",
		Topology: topo,
		TGs: []TGSpec{{
			Endpoint: 0, Gen: &traffic.TraceConfig{Trace: rec},
		}},
		TRs: []TRSpec{{
			Endpoint: 100, Mode: receptor.TraceDriven, ExpectPackets: 120,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := replay.Run(2_000_000); !stopped {
		t.Fatal("replay run did not finish")
	}
	tot := replay.Totals()
	if tot.PacketsReceived != 120 || tot.FlitsReceived != 120*9 {
		t.Errorf("replay delivered %d packets / %d flits", tot.PacketsReceived, tot.FlitsReceived)
	}
	// Replayed traffic keeps the recorded burst structure: the replay
	// run time is within the recorded span plus drain slack.
	if tot.Cycles > rec.Duration()+1_000 {
		t.Errorf("replay took %d cycles for a %d-cycle trace", tot.Cycles, rec.Duration())
	}
}

// TestRecordedTraceFeedsGenerator checks the recorded trace type-checks
// straight into the traffic layer.
func TestRecordedTraceFeedsGenerator(t *testing.T) {
	cfg, err := PaperConfig(PaperOptions{Traffic: PaperUniform, PacketsPerTG: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg.TRs[0].RecordTrace = true
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(1_000_000)
	tr, _ := p.TR(flit.EndpointID(100))
	gen, err := traffic.NewTraceGen(tr.Recorded())
	if err != nil {
		t.Fatal(err)
	}
	if gen.Remaining() != 10 {
		t.Errorf("remaining = %d", gen.Remaining())
	}
}
