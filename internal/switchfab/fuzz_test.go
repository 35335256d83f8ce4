package switchfab

import (
	"bytes"
	"testing"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// fuzzRig builds the switch FuzzSwitchState loads into: shape 0 is the
// centre of a 3×3 mesh — four neighbours and a terminal, one channel —
// and shape 1 a torus switch of the same radix with two virtual
// channels, whose odd sinks are routed on class 1.
func fuzzRig(tb testing.TB, shape uint8) *rig {
	numVC := 1 + int(shape%2)
	r := newRig(tb, 5, 5, numVC, 4)
	if numVC > 1 {
		for o := 1; o < 5; o += 2 {
			if err := r.sw.cfg.Table.SetVC(0, flit.EndpointID(100+o), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return r
}

// saturate drives every input with packets for two of the five outputs,
// so lanes fill, heads block and wormhole locks stay held.
func saturate(r *rig, cycles int) {
	d := newTrickle(r, 3, 5, 2)
	for c := 0; c < cycles; c++ {
		d.collect()
		for k := 0; k < 4; k++ { // a packet start is likelier than the trickle's one in four
			d.rng.Int()
		}
		d.feed(true)
		r.step(nil)
	}
}

// FuzzSwitchState: arbitrary bytes fed to Switch.LoadState either fail,
// or restore a switch that re-saves to the bytes it consumed and ticks
// without a panic. The seeds are both shapes saved empty and saturated.
func FuzzSwitchState(f *testing.F) {
	for shape := uint8(0); shape < 2; shape++ {
		r := fuzzRig(f, shape)
		f.Add(shape, saved(r.sw))
		saturate(r, 120)
		f.Add(shape, saved(r.sw))
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		r := fuzzRig(t, shape)
		rd := state.NewReader(data)
		if err := r.sw.LoadState(rd); err != nil {
			return
		}
		if rd.Err() != nil {
			t.Fatalf("LoadState succeeded over a decode error: %v", rd.Err())
		}
		if consumed := data[:len(data)-rd.Remaining()]; !bytes.Equal(saved(r.sw), consumed) {
			t.Fatalf("loaded % x, re-saves as % x", consumed, saved(r.sw))
		}
		for c := 0; c < 20; c++ {
			r.step(nil)
		}
	})
}
