package traffic

import (
	"strings"
	"testing"

	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/state"
	"nocemu/internal/trace"
)

// tgHarness holds a TG wired to raw links, with a manual sink that
// drains the output link at full rate and returns credits.
type tgHarness struct {
	tg  *TG
	out *link.Link
	cr  *link.CreditLink
}

func newTGHarness(t testing.TB, gen Generator, cfg TGConfig) *tgHarness {
	t.Helper()
	out := link.NewLink("out")
	cr := link.NewCreditLink("cr")
	inj, err := nic.NewInjector(0, out, cr, 4, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := NewTG(cfg, gen, inj)
	if err != nil {
		t.Fatal(err)
	}
	return &tgHarness{tg: tg, out: out, cr: cr}
}

// run executes n cycles, consuming every flit and returning credits.
func (h *tgHarness) run(n uint64) (flits int, packets int) {
	for c := uint64(0); c < n; c++ {
		h.tg.Tick(c)
		if f := h.out.Take(c); f != nil {
			flits++
			if f.Kind.IsTail() {
				packets++
			}
			h.cr.Send(c, 1)
		}
		h.tg.Commit(c)
	}
	return flits, packets
}

func TestNewTGValidation(t *testing.T) {
	out := link.NewLink("o")
	cr := link.NewCreditLink("c")
	inj, _ := nic.NewInjector(0, out, cr, 1, 1, nil)
	g, _ := NewUniform(UniformConfig{LenMin: 1, LenMax: 1, Dst: fixedDst(1)})
	if _, err := NewTG(TGConfig{Name: ""}, g, inj); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewTG(TGConfig{Name: "tg"}, nil, inj); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := NewTG(TGConfig{Name: "tg"}, g, nil); err == nil {
		t.Error("nil injector accepted")
	}
}

func TestTGLimitAndDone(t *testing.T) {
	g, _ := NewUniform(UniformConfig{LenMin: 2, LenMax: 2, GapMin: 1, GapMax: 1, Dst: fixedDst(1)})
	h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 1, Limit: 5})
	flits, packets := h.run(200)
	if packets != 5 || flits != 10 {
		t.Errorf("packets=%d flits=%d, want 5/10", packets, flits)
	}
	if !h.tg.Done() {
		t.Error("TG not done after limit")
	}
	st := h.tg.Stats()
	if st.Offered != 5 || st.Injector.PacketsSent != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTGTraceDoneWhenExhausted(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{
		{Cycle: 0, Dst: 1, Len: 2},
		{Cycle: 5, Dst: 1, Len: 1},
	}}
	g, err := NewTraceGen(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 1})
	if h.tg.Done() {
		t.Error("done before start")
	}
	_, packets := h.run(50)
	if packets != 2 {
		t.Errorf("packets = %d", packets)
	}
	if !h.tg.Done() {
		t.Error("not done after trace end")
	}
}

func TestTGDisableStopsCreation(t *testing.T) {
	g, _ := NewUniform(UniformConfig{LenMin: 1, LenMax: 1, GapMin: 0, GapMax: 0, Dst: fixedDst(1)})
	h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 1})
	h.tg.SetEnabled(false)
	if h.tg.Enabled() {
		t.Error("Enabled() after disable")
	}
	flits, _ := h.run(50)
	if flits != 0 {
		t.Errorf("disabled TG emitted %d flits", flits)
	}
	h.tg.SetEnabled(true)
	flits, _ = h.run(50)
	if flits == 0 {
		t.Error("enabled TG emitted nothing")
	}
}

func TestTGBackpressureHoldsDemands(t *testing.T) {
	// Source queue of 16 flits; packets of 8; gap 0 -> generator wants
	// 1 flit/cycle but the sink never returns credits beyond initial 4.
	g, _ := NewUniform(UniformConfig{LenMin: 8, LenMax: 8, GapMin: 0, GapMax: 0, Dst: fixedDst(1)})
	out := link.NewLink("out")
	cr := link.NewCreditLink("cr")
	inj, err := nic.NewInjector(0, out, cr, 4, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := NewTG(TGConfig{Name: "tg", Seed: 1}, g, inj)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(0); c < 100; c++ {
		tg.Tick(c)
		out.Take(c) // consume but never credit back
		tg.Commit(c)
	}
	st := tg.Stats()
	// 2 packets fit in the queue; the third waits in pending.
	if st.Offered != 3 {
		t.Errorf("offered = %d, want 3 (2 queued + 1 held)", st.Offered)
	}
	if st.BackpressureCycles == 0 {
		t.Error("no backpressure recorded")
	}
	if st.Injector.FlitsSent != 4 {
		t.Errorf("flits sent = %d, want 4 (initial credits)", st.Injector.FlitsSent)
	}
}

// encodedLen returns the number of bytes save writes — in a TG
// snapshot, the offset of whatever follows the saved part.
func encodedLen(save func(*state.Writer)) int {
	w := state.NewWriter()
	save(w)
	return w.Len()
}

// TestTGLoadRejectsZeroLengthPending: a snapshot whose held demand has
// zero flits, which no generator emits, is refused at load with an error
// naming the TG — not restored into a Tick that panics in the injector.
func TestTGLoadRejectsZeroLengthPending(t *testing.T) {
	mk := func() *tgHarness {
		g, _ := NewUniform(UniformConfig{LenMin: 8, LenMax: 8, GapMin: 0, GapMax: 0, Dst: fixedDst(1)})
		return newTGHarness(t, g, TGConfig{Name: "tg7", Seed: 1})
	}
	src := mk()
	// No credit comes back: two packets fill the queue, the third is held.
	for c := uint64(0); c < 20; c++ {
		src.tg.Tick(c)
		src.out.Take(c)
		src.tg.Commit(c)
	}
	w := state.NewWriter()
	src.tg.SaveState(w)
	snap := w.Bytes()
	// After the LFSR and the generator: hasPending, Dst, Len — one byte
	// each here.
	at := encodedLen(src.tg.lfsr.SaveState) + encodedLen(src.tg.gen.SaveState)
	if snap[at] != 1 || snap[at+2] != 8 {
		t.Fatalf("held demand not where expected: % x", snap[at:at+3])
	}
	snap[at+2] = 0

	h := mk()
	err := h.tg.LoadState(state.NewReader(snap))
	if err == nil {
		h.run(10)
		t.Fatal("zero-length held demand restored")
	}
	if !strings.Contains(err.Error(), "tg7") {
		t.Errorf("error %q does not name the TG", err)
	}
}

func TestTGReseedReproducesTraffic(t *testing.T) {
	mkRun := func() []uint64 {
		g, _ := NewUniform(UniformConfig{
			LenMin: 1, LenMax: 4, GapMin: 0, GapMax: 6,
			Dst: fixedDst(1), RandomPhase: true,
		})
		h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 42, Limit: 20})
		var sizes []uint64
		for c := uint64(0); c < 500; c++ {
			h.tg.Tick(c)
			if f := h.out.Take(c); f != nil {
				if f.Kind.IsHead() {
					sizes = append(sizes, uint64(f.PacketLen))
				}
				h.cr.Send(c, 1)
			}
			h.tg.Commit(c)
		}
		return sizes
	}
	a, b := mkRun(), mkRun()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTGSetLimit(t *testing.T) {
	g, _ := NewUniform(UniformConfig{LenMin: 1, LenMax: 1, GapMin: 0, GapMax: 0, Dst: fixedDst(1)})
	h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 1, Limit: 2})
	h.run(50)
	if !h.tg.Done() {
		t.Fatal("not done at limit 2")
	}
	h.tg.SetLimit(4)
	if h.tg.Done() {
		t.Error("still done after raising limit")
	}
	_, packets := h.run(50)
	if packets != 2 {
		t.Errorf("extra packets = %d, want 2", packets)
	}
}
