package traffic

import (
	"strings"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/state"
)

func TestScriptGenEmitsDueRecordsInOrder(t *testing.T) {
	g := NewScript(nil)
	if err := g.Append(ScriptRec{At: 5, Dst: 7, Len: 3, Payload: 42}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append(ScriptRec{At: 5, Dst: 8, Len: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append(ScriptRec{At: 9, Dst: 9, Len: 2}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	var d Demand
	for c := uint64(0); c < 5; c++ {
		if g.Step(c, r, &d) {
			t.Fatalf("cycle %d: emitted before due", c)
		}
	}
	if !g.Step(5, r, &d) || d.Dst != 7 || d.Len != 3 || d.Payload != 42 {
		t.Fatalf("cycle 5: got %+v", d)
	}
	// Same-cycle records come out on consecutive steps, FIFO.
	if !g.Step(6, r, &d) || d.Dst != 8 {
		t.Fatalf("second record: got %+v", d)
	}
	if g.Step(7, r, &d) {
		t.Fatal("cycle 7: record due at 9 emitted early")
	}
	if !g.Step(9, r, &d) || d.Dst != 9 {
		t.Fatalf("third record: got %+v", d)
	}
	if g.Backlog() != 0 {
		t.Fatalf("backlog %d after full emission", g.Backlog())
	}
	if g.Exhausted() {
		t.Fatal("script generators must never report exhaustion")
	}
}

func TestScriptGenRejectsOutOfOrderAppend(t *testing.T) {
	g := NewScript(nil)
	if err := g.Append(ScriptRec{At: 10, Dst: 1, Len: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append(ScriptRec{At: 9, Dst: 1, Len: 1}); err == nil {
		t.Fatal("append behind the queue tail must fail")
	}
	if err := g.Append(ScriptRec{At: 10, Dst: 2, Len: 0}); err == nil {
		t.Fatal("zero-length record must fail")
	}
}

func TestScriptGenSleep(t *testing.T) {
	g := NewScript(nil)
	// Empty: a long bounded sleep, never an unbounded one (the TG adds
	// cycle+1+n, which must not overflow).
	n, ok := g.Sleep(100)
	if !ok || n != scriptIdleSleep {
		t.Fatalf("empty sleep = %d, %v", n, ok)
	}
	if err := g.Append(ScriptRec{At: 50, Dst: 1, Len: 1}); err != nil {
		t.Fatal(err)
	}
	if n, ok = g.Sleep(10); !ok || n != 39 {
		t.Fatalf("sleep to due cycle = %d, %v (want 39)", n, ok)
	}
	if _, ok = g.Sleep(49); ok {
		t.Fatal("must not sleep past the due cycle")
	}
}

func TestScriptGenWrapsInnerModel(t *testing.T) {
	inner, err := NewUniform(UniformConfig{
		LenMin: 2, LenMax: 2, GapMin: 0, GapMax: 0,
		Dst: DstConfig{Policy: DstFixed, Dsts: []flit.EndpointID{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewScript(inner)
	if g.ModelName() != "script+uniform" {
		t.Fatalf("model name %q", g.ModelName())
	}
	if err := g.Append(ScriptRec{At: 0, Dst: 9, Len: 5}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	var d Demand
	// The due scripted record outranks the inner model.
	if !g.Step(0, r, &d) || d.Dst != 9 || d.Len != 5 {
		t.Fatalf("script priority: got %+v", d)
	}
	// With the script drained the inner uniform model takes over.
	if !g.Step(1, r, &d) || d.Dst != 3 || d.Len != 2 {
		t.Fatalf("inner delegation: got %+v", d)
	}
	// Inner serialization countdown bounds the combined sleep.
	if n, ok := g.Sleep(1); !ok || n != 1 {
		t.Fatalf("combined sleep = %d, %v (want inner wait 1)", n, ok)
	}
}

func TestScriptGenSaveLoadRoundTrip(t *testing.T) {
	g := NewScript(nil)
	for _, rec := range []ScriptRec{
		{At: 3, Dst: 1, Len: 2, Payload: 7},
		{At: 8, Dst: 2, Len: 4},
		{At: 8, Dst: 3, Len: 1, Payload: 99},
	} {
		if err := g.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(1)
	var d Demand
	if !g.Step(3, r, &d) {
		t.Fatal("first record not emitted")
	}
	w := state.NewWriter()
	g.SaveState(w)

	restored := NewScript(nil)
	if err := restored.LoadState(state.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Backlog() != g.Backlog() {
		t.Fatalf("backlog %d != %d", restored.Backlog(), g.Backlog())
	}
	// Appends after restore continue the same stream.
	if err := restored.Append(ScriptRec{At: 12, Dst: 4, Len: 1}); err != nil {
		t.Fatal(err)
	}
	want := []ScriptRec{{At: 8, Dst: 2, Len: 4}, {At: 8, Dst: 3, Len: 1, Payload: 99}, {At: 12, Dst: 4, Len: 1}}
	for i, rec := range want {
		if !restored.Step(20, r, &d) || d.Dst != rec.Dst || d.Len != rec.Len || d.Payload != rec.Payload {
			t.Fatalf("restored record %d: got %+v want %+v", i, d, rec)
		}
	}

	// A snapshot of a pure script must not restore into a wrapped one.
	inner, err := NewUniform(UniformConfig{
		LenMin: 1, LenMax: 1, GapMin: 0, GapMax: 0,
		Dst: DstConfig{Policy: DstFixed, Dsts: []flit.EndpointID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewScript(inner).LoadState(state.NewReader(w.Bytes())); err == nil {
		t.Fatal("inner-model shape mismatch must fail")
	}
}

// TestScriptGenLoadRejectsWhatAppendRefuses: a restored script queue
// passes Append's own checks, so a zero-length record or one due before
// its predecessor is refused at load with an error naming the TG.
func TestScriptGenLoadRejectsWhatAppendRefuses(t *testing.T) {
	mk := func() *tgHarness { return newTGHarness(t, NewScript(nil), TGConfig{Name: "tg3", Seed: 1}) }
	src := mk()
	for _, rec := range []ScriptRec{{At: 3, Dst: 1, Len: 2}, {At: 8, Dst: 1, Len: 4}} {
		if err := src.tg.gen.(*ScriptGen).Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w := state.NewWriter()
	src.tg.SaveState(w)
	// After the LFSR: the record count, then At, Dst, Len, Payload per
	// record — one byte each here.
	second := encodedLen(src.tg.lfsr.SaveState) + 1 + 4
	if b := w.Bytes(); b[second] != 8 || b[second+2] != 4 {
		t.Fatalf("second record not where expected: % x", b[second:second+4])
	}
	for _, c := range []struct {
		name string
		off  int
		v    byte
	}{
		{"zero-length record", second + 2, 0},
		{"record due before its predecessor", second, 2},
	} {
		snap := append([]byte(nil), w.Bytes()...)
		snap[c.off] = c.v
		h := mk()
		err := h.tg.LoadState(state.NewReader(snap))
		if err == nil {
			h.run(20)
			t.Errorf("%s: restored", c.name)
			continue
		}
		if !strings.Contains(err.Error(), "tg3") {
			t.Errorf("%s: error %q does not name the TG", c.name, err)
		}
	}
}
