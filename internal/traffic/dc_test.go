package traffic

import (
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/state"
)

func TestFlowGenValidation(t *testing.T) {
	base := FlowConfig{
		ArrivalQ16: 2000, SizeMin: 1, SizeMax: 64,
		LenMin: 4, LenMax: 4, Dst: fixedDst(9),
	}
	if _, err := NewFlowGen(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.ArrivalQ16 = 0
	if _, err := NewFlowGen(bad); err == nil {
		t.Error("zero arrival probability accepted")
	}
	bad = base
	bad.SizeMin, bad.SizeMax = 8, 4
	if _, err := NewFlowGen(bad); err == nil {
		t.Error("inverted size range accepted")
	}
	bad = base
	bad.SizeMin = 0
	if _, err := NewFlowGen(bad); err == nil {
		t.Error("zero flow size accepted")
	}
}

// TestFlowGenTrains: every emitted packet belongs to a flow — a
// back-to-back train to a single destination with sizes inside the
// configured bounds, serialized at one packet per Len cycles.
func TestFlowGenTrains(t *testing.T) {
	g, err := NewFlowGen(FlowConfig{
		ArrivalQ16: 30000, SizeMin: 2, SizeMax: 8,
		LenMin: 3, LenMax: 3,
		Dst: DstConfig{Policy: DstUniform, Dsts: []flit.EndpointID{10, 11, 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var emitted, flowPackets int
	var lastCycle uint64
	var flowDst flit.EndpointID
	for c := uint64(0); c < 5_000; c++ {
		inFlow := g.remaining > 0
		var d Demand
		if !g.Step(c, r, &d) {
			continue
		}
		if d.Len != 3 {
			t.Fatalf("cycle %d: packet length %d", c, d.Len)
		}
		if emitted > 0 && c-lastCycle < 3 {
			t.Fatalf("cycle %d: packet emitted %d cycles after the last (violates serialization)", c, c-lastCycle)
		}
		if inFlow {
			// Mid-flow packets continue the train: same destination,
			// back-to-back cadence.
			if d.Dst != flowDst {
				t.Fatalf("cycle %d: destination changed mid-flow (%d -> %d)", c, flowDst, d.Dst)
			}
			flowPackets++
			if flowPackets > 8 {
				t.Fatalf("cycle %d: flow exceeded SizeMax=8 packets", c)
			}
		} else {
			flowPackets = 1
			flowDst = d.Dst
		}
		emitted++
		lastCycle = c
	}
	if emitted < 100 {
		t.Fatalf("only %d packets in 5000 cycles at high arrival rate", emitted)
	}
}

// TestFlowSizesHeavyTailed: the bounded-Pareto draw concentrates on
// mice but still produces elephants at the cap.
func TestFlowSizesHeavyTailed(t *testing.T) {
	g, err := NewFlowGen(FlowConfig{
		ArrivalQ16: 65535, SizeMin: 1, SizeMax: 64,
		LenMin: 1, LenMax: 1, Dst: fixedDst(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	counts := map[uint32]int{}
	for i := 0; i < 4_000; i++ {
		counts[g.drawFlowSize(r)]++
	}
	if counts[1] < 1_000 {
		t.Errorf("mice underrepresented: %d size-1 flows of 4000", counts[1])
	}
	if counts[64] == 0 {
		t.Error("no elephant (size 64) flows in 4000 draws")
	}
	for size := range counts {
		if size < 1 || size > 64 {
			t.Errorf("size %d outside [1,64]", size)
		}
	}
}

func TestIncastGenValidation(t *testing.T) {
	base := IncastConfig{
		Epoch: 100, PacketsPerWave: 4,
		LenMin: 4, LenMax: 4, Dst: fixedDst(9),
	}
	if _, err := NewIncastGen(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Epoch = 0
	if _, err := NewIncastGen(bad); err == nil {
		t.Error("zero epoch accepted")
	}
	bad = base
	bad.PacketsPerWave = 0
	if _, err := NewIncastGen(bad); err == nil {
		t.Error("zero wave size accepted")
	}
}

// TestIncastWaves: waves of exactly PacketsPerWave packets start on
// epoch boundaries, all packets of one wave target one sink, and the
// round-robin rotation advances per wave.
func TestIncastWaves(t *testing.T) {
	g, err := NewIncastGen(IncastConfig{
		Epoch: 50, PacketsPerWave: 3, LenMin: 2, LenMax: 2,
		Dst: DstConfig{Policy: DstRoundRobin, Dsts: []flit.EndpointID{20, 21}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	demands, cycles := drive(g, r, 200)
	if len(demands) != 12 {
		t.Fatalf("%d packets in 4 epochs, want 12", len(demands))
	}
	for w := 0; w < 4; w++ {
		base := uint64(50 * w)
		if cycles[3*w] != base {
			t.Errorf("wave %d started at cycle %d, want %d", w, cycles[3*w], base)
		}
		want := flit.EndpointID(20 + w%2)
		for i := 3 * w; i < 3*w+3; i++ {
			if demands[i].Dst != want {
				t.Errorf("wave %d packet targets %d, want %d", w, demands[i].Dst, want)
			}
		}
	}
}

// TestIncastSleepIsLossless: sleeping through the idle stretch between
// waves must emit the same schedule as stepping every cycle.
func TestIncastSleepIsLossless(t *testing.T) {
	mk := func() *IncastGen {
		g, err := NewIncastGen(IncastConfig{
			Epoch: 40, PacketsPerWave: 2, LenMin: 2, LenMax: 2,
			Offset: 7, Dst: fixedDst(9),
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	stepped := mk()
	r1 := rng.New(4)
	wantD, wantC := drive(stepped, r1, 300)

	slept := mk()
	r2 := rng.New(4)
	var gotD []Demand
	var gotC []uint64
	for c := uint64(0); c < 300; {
		var d Demand
		if slept.Step(c, r2, &d) {
			gotD = append(gotD, d)
			gotC = append(gotC, c)
			c++
			continue
		}
		if n, ok := slept.Sleep(c); ok && n > 0 {
			slept.SkipSteps(n)
			c += n
			continue
		}
		c++
	}
	if len(gotD) != len(wantD) {
		t.Fatalf("slept run emitted %d packets, stepped %d", len(gotD), len(wantD))
	}
	for i := range wantD {
		if gotD[i] != wantD[i] || gotC[i] != wantC[i] {
			t.Fatalf("packet %d: slept (%v @%d) vs stepped (%v @%d)",
				i, gotD[i], gotC[i], wantD[i], wantC[i])
		}
	}
}

// TestDCGeneratorsSnapshotRoundTrip: mid-flow and mid-wave state
// survives SaveState/LoadState bit-exactly — the property the zoo
// restore-and-continue test relies on. The RNG is cloned through its
// own State(), mirroring how the platform snapshot carries both.
func TestDCGeneratorsSnapshotRoundTrip(t *testing.T) {
	flowCfg := FlowConfig{
		ArrivalQ16: 20000, SizeMin: 1, SizeMax: 16,
		LenMin: 4, LenMax: 4,
		Dst: DstConfig{Policy: DstUniform, Dsts: []flit.EndpointID{10, 11, 12}},
	}
	incastCfg := IncastConfig{
		Epoch: 30, PacketsPerWave: 5, LenMin: 3, LenMax: 3,
		Dst: DstConfig{Policy: DstRoundRobin, Dsts: []flit.EndpointID{20, 21, 22}},
	}
	cases := map[string]func() (Generator, error){
		"flow":   func() (Generator, error) { return NewFlowGen(flowCfg) },
		"incast": func() (Generator, error) { return NewIncastGen(incastCfg) },
	}
	for name, mk := range cases {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(9)
		drive(g, r, 101) // land mid-flow / mid-wave
		w := &state.Writer{}
		g.(interface{ SaveState(*state.Writer) }).SaveState(w)

		restored, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		rd := state.NewReader(w.Bytes())
		if err := restored.(interface{ LoadState(*state.Reader) error }).LoadState(rd); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		r2 := *r // the same register, drawn on apart

		wantD, wantC := drive(g, r, 200)
		gotD, gotC := drive(restored, &r2, 200)
		if len(gotD) != len(wantD) {
			t.Fatalf("%s: restored emitted %d packets, want %d", name, len(gotD), len(wantD))
		}
		for i := range wantD {
			if gotD[i] != wantD[i] || gotC[i] != wantC[i] {
				t.Fatalf("%s: packet %d diverged: %v@%d vs %v@%d",
					name, i, gotD[i], gotC[i], wantD[i], wantC[i])
			}
		}
	}
}
