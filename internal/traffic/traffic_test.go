package traffic

import (
	"math"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/trace"
)

func fixedDst(id flit.EndpointID) DstConfig {
	return DstConfig{Policy: DstFixed, Dsts: []flit.EndpointID{id}}
}

// drive runs a generator for n cycles and returns the demands with the
// cycles they were produced at.
func drive(g Generator, r *rng.LFSR, n uint64) (demands []Demand, cycles []uint64) {
	for c := uint64(0); c < n; c++ {
		var d Demand
		if g.Step(c, r, &d) {
			demands = append(demands, d)
			cycles = append(cycles, c)
		}
	}
	return demands, cycles
}

func TestDstChooserValidation(t *testing.T) {
	if _, err := newDstChooser(DstConfig{Policy: DstFixed}); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := newDstChooser(DstConfig{Policy: "bogus", Dsts: []flit.EndpointID{1}}); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestDstPolicies(t *testing.T) {
	r := rng.New(1)
	set := []flit.EndpointID{10, 11, 12}

	d, err := newDstChooser(DstConfig{Policy: DstFixed, Dsts: set})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if d.next(r) != 10 {
			t.Fatal("fixed policy moved")
		}
	}

	d, _ = newDstChooser(DstConfig{Policy: DstRoundRobin, Dsts: set})
	got := []flit.EndpointID{d.next(r), d.next(r), d.next(r), d.next(r)}
	want := []flit.EndpointID{10, 11, 12, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v", got)
		}
	}

	d, _ = newDstChooser(DstConfig{Policy: DstUniform, Dsts: set})
	seen := map[flit.EndpointID]bool{}
	for i := 0; i < 200; i++ {
		seen[d.next(r)] = true
	}
	if len(seen) != 3 {
		t.Errorf("uniform covered %d destinations", len(seen))
	}
}

func TestNewUniformValidation(t *testing.T) {
	bad := []UniformConfig{
		{LenMin: 0, LenMax: 1, Dst: fixedDst(1)},
		{LenMin: 3, LenMax: 2, Dst: fixedDst(1)},
		{LenMin: 1, LenMax: 1, GapMin: 5, GapMax: 2, Dst: fixedDst(1)},
		{LenMin: 1, LenMax: 1, Dst: DstConfig{Policy: DstFixed}},
	}
	for i, cfg := range bad {
		if _, err := NewUniform(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUniformSpacingFixed(t *testing.T) {
	g, err := NewUniform(UniformConfig{LenMin: 4, LenMax: 4, GapMin: 6, GapMax: 6, Dst: fixedDst(1)})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	demands, cycles := drive(g, r, 100)
	if len(demands) != 10 {
		t.Fatalf("demands = %d, want 10", len(demands))
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i]-cycles[i-1] != 10 {
			t.Errorf("spacing %d, want 10 (len+gap)", cycles[i]-cycles[i-1])
		}
	}
	if g.ModelName() != "uniform" || g.Exhausted() {
		t.Error("metadata wrong")
	}
}

func TestUniformOfferedLoad(t *testing.T) {
	// len 9, gap 11 -> 45% offered load, the paper's setting.
	g, err := NewUniform(UniformConfig{LenMin: 9, LenMax: 9, GapMin: 11, GapMax: 11, Dst: fixedDst(1)})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	demands, _ := drive(g, r, 20000)
	var flits uint64
	for _, d := range demands {
		flits += uint64(d.Len)
	}
	load := float64(flits) / 20000
	if math.Abs(load-0.45) > 0.01 {
		t.Errorf("load = %v, want ~0.45", load)
	}
}

func TestUniformRandomPhaseDesynchronizes(t *testing.T) {
	mk := func(seed uint32) uint64 {
		g, err := NewUniform(UniformConfig{
			LenMin: 4, LenMax: 4, GapMin: 6, GapMax: 6,
			Dst: fixedDst(1), RandomPhase: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		_, cycles := drive(g, r, 50)
		if len(cycles) == 0 {
			t.Fatal("no demands")
		}
		return cycles[0]
	}
	seen := map[uint64]bool{}
	for seed := uint32(1); seed <= 8; seed++ {
		seen[mk(seed)] = true
	}
	if len(seen) < 3 {
		t.Errorf("random phase produced only %d distinct offsets", len(seen))
	}
}

func TestNewBurstValidation(t *testing.T) {
	bad := []BurstConfig{
		{POffOn: 0, POnOff: 100, LenMin: 1, LenMax: 1, Dst: fixedDst(1)},
		{POffOn: 100, POnOff: 0, LenMin: 1, LenMax: 1, Dst: fixedDst(1)},
		{POffOn: 100, POnOff: 100, LenMin: 0, LenMax: 1, Dst: fixedDst(1)},
		{POffOn: 100, POnOff: 100, LenMin: 1, LenMax: 1, Dst: DstConfig{Policy: DstFixed}},
	}
	for i, cfg := range bad {
		if _, err := NewBurst(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBurstBackToBackWithinBurst(t *testing.T) {
	// Burst ends per packet with p=1/16; bursts average 16 packets.
	g, err := NewBurst(BurstConfig{
		POffOn: 6554, POnOff: 4096, LenMin: 3, LenMax: 3, Dst: fixedDst(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	demands, cycles := drive(g, r, 50000)
	if len(demands) < 100 {
		t.Fatalf("too few demands: %d", len(demands))
	}
	// Within a burst consecutive packets are exactly len apart.
	backToBack := 0
	for i := 1; i < len(cycles); i++ {
		if cycles[i]-cycles[i-1] == 3 {
			backToBack++
		}
	}
	if backToBack == 0 {
		t.Error("no back-to-back packets observed in burst traffic")
	}
}

func TestBurstMeanLoadMatchesAnalytic(t *testing.T) {
	cfg := BurstConfig{
		POffOn: 3277,  // ~0.05/cycle to start a burst
		POnOff: 13107, // ~0.2/packet to end it
		LenMin: 4, LenMax: 4, Dst: fixedDst(1),
	}
	g, err := NewBurst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	const horizon = 400000
	demands, _ := drive(g, r, horizon)
	var flits uint64
	for _, d := range demands {
		flits += uint64(d.Len)
	}
	measured := float64(flits) / horizon
	want := cfg.MeanLoad()
	if math.Abs(measured-want) > 0.05 {
		t.Errorf("measured load %v vs analytic %v", measured, want)
	}
}

func TestPoissonRate(t *testing.T) {
	if _, err := NewPoisson(PoissonConfig{Lambda: 0, LenMin: 1, LenMax: 1, Dst: fixedDst(1)}); err == nil {
		t.Error("lambda 0 accepted")
	}
	g, err := NewPoisson(PoissonConfig{Lambda: 6554, LenMin: 2, LenMax: 2, Dst: fixedDst(1)}) // ~0.1
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	demands, _ := drive(g, r, 100000)
	rate := float64(len(demands)) / 100000
	if math.Abs(rate-0.1) > 0.01 {
		t.Errorf("packet rate = %v, want ~0.1", rate)
	}
	if g.ModelName() != "poisson" {
		t.Error("model name")
	}
}

func TestTraceGen(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{
		{Cycle: 2, Dst: 5, Len: 3},
		{Cycle: 2, Dst: 6, Len: 1},
		{Cycle: 7, Dst: 5, Len: 2},
	}}
	g, err := NewTraceGen(tr)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	demands, cycles := drive(g, r, 10)
	if len(demands) != 3 {
		t.Fatalf("demands = %d", len(demands))
	}
	// Two records at cycle 2 serialize over cycles 2 and 3.
	if cycles[0] != 2 || cycles[1] != 3 || cycles[2] != 7 {
		t.Errorf("cycles = %v", cycles)
	}
	if demands[0].Dst != 5 || demands[0].Len != 3 || demands[1].Dst != 6 {
		t.Errorf("demands = %+v %+v", demands[0], demands[1])
	}
	if !g.Exhausted() || g.Remaining() != 0 {
		t.Error("not exhausted after replay")
	}
	bad := &trace.Trace{Records: []trace.Record{{Cycle: 0, Dst: 1, Len: 0}}}
	if _, err := NewTraceGen(bad); err == nil {
		t.Error("invalid trace accepted")
	}
}
