package engine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nocemu/internal/engine"
	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/regmap"
	"nocemu/internal/state"
	"nocemu/internal/topology"
)

// The wire contract across walks. A wire takes its cycle from the Tick
// of whoever sends on it, takes from it or faults it, never from the
// engine; every counter read from it is derived. So every walk of one platform — plain, gated, gated with the
// gates standing down after every probe window, two workers, and a class
// walk that drives Engine.Components itself with its own cycle numbers,
// as the repository benchmark's does — must leave the same totals, the
// same LINK-bank reads, the same collector samples at every window
// boundary and the same snapshot, through a stuck and a corrupt fault
// window, with no flit left untaken on any wire.

// walker advances a platform by n cycles one way.
type walker struct {
	name    string
	noGate  bool
	workers int
	prepare func(p *platform.Platform)
	// class drives the components itself; the engine's counter stays
	// where it is until the walk sets it to the walk's own cycle.
	class bool
}

func (w walker) run(p *platform.Platform, n uint64) {
	if !w.class {
		p.RunCycles(n)
		return
	}
	e := p.Engine()
	comps := e.Components()
	c0 := e.Cycle()
	for c := c0; c < c0+n; c++ {
		for _, comp := range comps {
			comp.Tick(c)
		}
		for _, comp := range comps {
			comp.Commit(c)
		}
	}
	// Reads between runs are at the engine's clock: move it to where the
	// walk is (LoadState moves no component).
	cw := state.NewWriter()
	cw.U64(c0 + n)
	if err := e.LoadState(state.NewReader(cw.Bytes())); err != nil {
		panic(err)
	}
}

// observation is what a walk must agree on, at the split and at the end.
type observation struct {
	totals   platform.Totals
	links    [][3]uint64 // FLITS, BUSY, CYCLES per inter-switch link, over the LINK bank
	busy     []uint64    // the collector's per-window link busy-cycles
	occ      []uint64    // and its boundary occupancy samples
	sections []state.Section
}

func observe(t *testing.T, p *platform.Platform) observation {
	t.Helper()
	var o observation
	o.totals = p.Totals()
	var links []*link.Link
	for i := 0; ; i++ {
		l, ok := p.Link(i)
		if !ok {
			break
		}
		if l.Overruns() != 0 {
			t.Errorf("link %d overran %d times: a flit was left untaken", i, l.Overruns())
		}
		links = append(links, l)
	}
	bank := regmap.NewLinkDevice(links)
	read := func(reg uint32) uint64 {
		lo, err := bank.ReadReg(reg)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := bank.ReadReg(reg + 1)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(hi)<<32 | uint64(lo)
	}
	for i := range links {
		if err := bank.WriteReg(regmap.RegLinkSel, uint32(i)); err != nil {
			t.Fatal(err)
		}
		o.links = append(o.links, [3]uint64{read(regmap.RegLinkFlits), read(regmap.RegLinkBusy), read(regmap.RegLinkCycles)})
	}
	c := p.Probe()
	for k := 0; k < c.WindowCount(); k++ {
		o.busy = append(o.busy, c.WindowBusy(k))
		o.occ = append(o.occ, c.WindowOcc(k))
	}
	b, err := p.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, o.sections, err = state.ReadSnapshot(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	return o
}

// differ names what o does not share with want; the pool section is
// compared only between sequential walks (a worker's freelist is its own).
func (o observation) differ(want observation, pooled bool) (out []string) {
	if o.totals != want.totals {
		out = append(out, fmt.Sprintf("totals %+v, want %+v", o.totals, want.totals))
	}
	for i := range want.links {
		if o.links[i] != want.links[i] {
			out = append(out, fmt.Sprintf("link %d FLITS/BUSY/CYCLES %v, want %v", i, o.links[i], want.links[i]))
		}
	}
	if !slices.Equal(o.busy, want.busy) || !slices.Equal(o.occ, want.occ) {
		out = append(out, fmt.Sprintf("window samples busy %v occ %v, want %v and %v", o.busy, o.occ, want.busy, want.occ))
	}
	if len(o.sections) != len(want.sections) {
		return append(out, fmt.Sprintf("%d snapshot sections, want %d", len(o.sections), len(want.sections)))
	}
	for i, s := range want.sections {
		if !bytes.Equal(o.sections[i].Body, s.Body) && !(pooled && s.Name == "pool") {
			out = append(out, "snapshot section "+s.Name)
		}
	}
	return out
}

func TestWireContractAcrossWalks(t *testing.T) {
	const split, end = 700, 1600
	walks := []walker{
		{name: "plain", noGate: true},
		{name: "gated"},
		{name: "gated-standing-down", prepare: func(p *platform.Platform) { engine.StandDownAlways(p.Engine()) }},
		{name: "workers=2", workers: 2},
		{name: "class-walk", noGate: true, class: true},
	}
	for _, tc := range []struct {
		spec string
		inj  float64
	}{
		{"mesh:w=8,h=8", 0.02},
		{"mesh:w=8,h=8", 0.30},
		{"torus:w=4,h=4,minimal=1,vcs=2", 0.20},
		{"fattree:k=4", 0.30},
	} {
		t.Run(fmt.Sprintf("%s@%.2f", tc.spec, tc.inj), func(t *testing.T) {
			ts, err := topology.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var want [2]observation
			for i, w := range walks {
				cfg, err := platform.NetConfig(platform.NetOptions{Topo: ts, Injection: tc.inj, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = &probe.Config{Window: 100}
				cfg.NoGate, cfg.Workers = w.noGate, w.workers
				p, err := platform.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.AddFaults([]fault.Spec{
					{Link: 0, Mode: link.FaultStuck, From: 200, Until: 900},
					{Link: 1, Mode: link.FaultCorrupt, From: 400, Until: 1100},
				}); err != nil {
					t.Fatal(err)
				}
				if w.prepare != nil {
					w.prepare(p)
				}
				var got [2]observation
				w.run(p, split)
				got[0] = observe(t, p)
				w.run(p, end-split)
				got[1] = observe(t, p)
				p.Close()
				if i == 0 {
					want = got
					if got[1].totals.FlitsRouted == 0 {
						t.Fatal("no traffic crossed the platform")
					}
					continue
				}
				for k, when := range []string{"at the split", "at the end"} {
					if d := got[k].differ(want[k], w.workers > 0); len(d) > 0 {
						t.Errorf("%s %s differs from the plain walk: %v", w.name, when, d)
					}
				}
			}
		})
	}
}
