package traffic

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"nocemu/internal/rng"
	"nocemu/internal/state"
)

// FuzzGeneratorState holds every model of the table, bare (rows
// 0..len-1) and inside a TG (rows len..2len-1), to the snapshot
// contract under arbitrary input: LoadState either fails, or leaves a
// device that re-saves to exactly the bytes it consumed and runs 200
// cycles without panicking. Read as register writes, the same input
// must be accepted exactly when the model's constructor accepts the
// configuration the write would leave, and a save/load round trip must
// preserve every register.
func FuzzGeneratorState(f *testing.F) {
	models := Models()
	for row, m := range models {
		g := sampleOf(f, m)
		drive(g, rng.New(1), 50)
		w := state.NewWriter()
		g.SaveState(w)
		f.Add(uint8(row), w.Bytes())

		h := newTGHarness(f, sampleOf(f, m), TGConfig{Name: "tg", Seed: 1})
		h.run(50)
		w = state.NewWriter()
		h.tg.SaveState(w)
		f.Add(uint8(len(models)+row), w.Bytes())
	}
	uniform := uint8(slices.IndexFunc(models, func(m Model) bool { return m.Name == "uniform" }))
	f.Add(uniform, []byte{0x81, 5, 0, 0, 0, 0x00, 9, 0, 0, 0, 0x83, 0, 0, 1, 0})
	// A uniform model whose gap range spans all 2^32 values.
	w := state.NewWriter()
	for _, v := range []uint32{1, 2, 0, math.MaxUint32} {
		w.U32(v)
	}
	w.U64(0)
	w.Bool(true)
	w.Int(0)
	f.Add(uniform, w.Bytes())

	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		m := models[int(row)%len(models)]
		inTG := int(row)%(2*len(models)) >= len(models)
		if !inTG {
			checkWrites(t, m, data)
		}

		g := sampleOf(t, m)
		save, load, run := g.SaveState, g.LoadState, func() { drive(g, rng.New(1), 200) }
		if inTG {
			h := newTGHarness(t, g, TGConfig{Name: "tg", Seed: 1})
			save, load, run = h.tg.SaveState, h.tg.LoadState, func() { h.run(200) }
		}
		r := state.NewReader(data)
		if err := load(r); err != nil {
			return
		}
		if r.Err() != nil {
			t.Fatalf("%s: LoadState succeeded over a decode error: %v", m.Name, r.Err())
		}
		w := state.NewWriter()
		save(w)
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("%s: loaded % x, re-saves as % x", m.Name, consumed, w.Bytes())
		}
		run()
	})
}

// checkWrites applies data, five bytes per write (index byte, value
// little-endian; the index byte's top bit folds the value into [0, 8)
// so invariants between registers get exercised), to a fresh sample of
// m and compares each outcome with the constructor's verdict.
func checkWrites(t *testing.T, m Model, data []byte) {
	g := sampleOf(t, m)
	p, ok := g.(Parameterized)
	if !ok {
		return
	}
	n := uint32(len(p.ParamNames()))
	for k := 0; k+5 <= len(data); k += 5 {
		i := uint32(data[k]&0x7F) % (n + 1)
		v := binary.LittleEndian.Uint32(data[k+1:])
		if data[k]&0x80 != 0 {
			v %= 8
		}
		want := registersOf(p)
		accept := constructorAccepts(t, m, p, i, v)
		if accept {
			want[i] = v
		}
		if got := p.WriteParam(i, v); got != accept {
			t.Fatalf("%s: WriteParam(%d, %d) = %v, constructor says %v", m.Name, i, v, got, accept)
		}
		if got := registersOf(p); !slices.Equal(got, want) {
			t.Fatalf("%s: registers %v after WriteParam(%d, %d), want %v", m.Name, got, i, v, want)
		}
	}
	w := state.NewWriter()
	g.SaveState(w)
	back := sampleOf(t, m)
	if err := back.LoadState(state.NewReader(w.Bytes())); err != nil {
		t.Fatalf("%s: own snapshot refused: %v", m.Name, err)
	}
	if got, want := registersOf(back.(Parameterized)), registersOf(p); !slices.Equal(got, want) {
		t.Fatalf("%s: registers %v after a save/load round trip, want %v", m.Name, got, want)
	}
}

// constructorAccepts is the register oracle, independent of the
// register code: the model's JSON object with every register at its
// current value and register i at v (the register's name is its key)
// must decode and build.
func constructorAccepts(t *testing.T, m Model, p Parameterized, i, v uint32) bool {
	names := p.ParamNames()
	if m.sample == "" || int(i) >= len(names) {
		return false
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(m.sample), &obj); err != nil {
		t.Fatal(err)
	}
	for k, name := range names {
		obj[name], _ = p.ReadParam(uint32(k))
	}
	obj[names[i]] = v
	raw, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DecodeModel(m.Name, ModelInput{Params: raw, Dst: fixedDst(1)})
	if err != nil {
		return false
	}
	_, err = cfg.New()
	return err == nil
}

func registersOf(p Parameterized) []uint32 {
	regs := make([]uint32, len(p.ParamNames()))
	for i := range regs {
		regs[i], _ = p.ReadParam(uint32(i))
	}
	return regs
}

func sampleOf(tb testing.TB, m Model) Generator {
	tb.Helper()
	g, err := m.Sample()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
