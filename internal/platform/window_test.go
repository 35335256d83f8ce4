package platform_test

import (
	"fmt"
	"slices"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/topology"
)

// windowSamples runs a traced zoo platform for cycles cycles under one
// walk and returns its windows' boundary occupancy and busy samples.
func windowSamples(t *testing.T, spec string, inj float64, workers int, noGate bool, cycles uint64) (occ, busy []uint64) {
	t.Helper()
	s, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := platform.NetConfig(platform.NetOptions{Topo: s, Injection: inj, Seed: 7, Workers: workers, NoGate: noGate})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &probe.Config{}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.RunCycles(cycles)
	c := p.Probe()
	for k := 0; k < c.WindowCount(); k++ {
		occ = append(occ, c.WindowOcc(k))
		busy = append(busy, c.WindowBusy(k))
	}
	return occ, busy
}

// TestWindowSamplesPinned pins the collector's window-boundary samples
// — the buffered flits summed over the switches at the start of each
// window, and the link busy-cycles inside it — on a loaded mesh and a
// two-channel torus, under the sequential, gated and pooled walks. The
// collector ticks after the switches, so it must read their occupancy
// as of the start of the sampling cycle; a switch whose buffers act
// within the cycle would otherwise leak that cycle's pushes and pops
// into the sample without any other observable changing.
func TestWindowSamplesPinned(t *testing.T) {
	for _, tc := range []struct {
		spec      string
		inj       float64
		occ, busy []uint64
	}{
		{"mesh:w=8,h=8", 0.30,
			[]uint64{0, 343, 302, 437, 435, 458, 443, 488, 486, 497},
			[]uint64{5063, 6240, 6642, 6114, 5539, 4972, 5845, 5690, 6298, 5810}},
		{"torus:w=4,h=4,vcs=2", 0.20,
			[]uint64{0, 20, 10, 10, 15, 13, 18, 18, 14, 24},
			[]uint64{568, 579, 579, 587, 559, 474, 557, 557, 631, 685}},
	} {
		for _, walk := range []struct {
			name    string
			workers int
			noGate  bool
		}{{"sequential", 0, true}, {"gated", 0, false}, {"workers=2", 2, false}} {
			t.Run(fmt.Sprintf("%s/%s", tc.spec, walk.name), func(t *testing.T) {
				occ, busy := windowSamples(t, tc.spec, tc.inj, walk.workers, walk.noGate, 640)
				if !slices.Equal(occ, tc.occ) || !slices.Equal(busy, tc.busy) {
					t.Errorf("window samples:\nocc  %v\nbusy %v\nwant\nocc  %v\nbusy %v", occ, busy, tc.occ, tc.busy)
				}
			})
		}
	}
}
