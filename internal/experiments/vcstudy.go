package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// VCRow is one packet-length point of the virtual-channel study.
type VCRow struct {
	PacketLen uint16
	// WormholeDone / WormholeDelivered: the single-class network's fate.
	// When it wedges, WormholeCycles is the cycle the watchdog aborted.
	WormholeDone      bool
	WormholeDelivered uint64
	WormholeCycles    uint64
	// DatelineDone / DatelineDelivered / DatelineCycles: the 2-VC
	// dateline network on the identical workload.
	DatelineDone      bool
	DatelineDelivered uint64
	DatelineCycles    uint64
}

// VCStudyResult compares plain wormhole against 2-VC dateline switching
// on the cyclic rings of a torus under sustained injection — the
// "emulate different NoC types and compare their features" use of the
// platform, with the virtual-channel count as the one parameter that
// differs. The result is the classic one: with a single channel class,
// each ring's buffer cycle fills and wedges at *every* packet length
// (cyclic buffer dependency — the reason rings need two VCs at all),
// while the dateline network completes every workload, with cycles
// growing linearly in the traffic volume.
type VCStudyResult struct {
	Rows      []VCRow
	PerSource int
}

// The study's network: wrap-aware minimal routing on a torus whose rows
// are rings of four. The study builds it with vcs=1 and vcs=2.
const (
	vcStudyW, vcStudyH = 4, 4
	vcStudySources     = vcStudyW * vcStudyH // one traffic generator per switch
)

// VCStudyTopo is the study's topology spec, less the vcs parameter.
var VCStudyTopo = topology.Spec{Kind: "torus", Param: map[string]int{"w": vcStudyW, "h": vcStudyH, "minimal": 1}}

// VCStudyConfig builds the study platform with the given virtual-channel
// count: every switch (x, y) streams perSource packets of plen flits,
// back to back, to the switch two hops east in its row. On a ring of
// four the tie goes the positive way, so the four flows of a row chase
// each other around it and their paths close the ring. Buffers are two
// flits deep. The single-class build skips the deadlock check it would
// fail; from two channels up the check must pass.
func VCStudyConfig(vcs, perSource int, plen uint16) (platform.Config, error) {
	topo, err := topology.FromSpec(VCStudyTopo.With(topology.ParamVCs, vcs))
	if err != nil {
		return platform.Config{}, err
	}
	cfg := platform.Config{
		Name: topo.Name(), Topology: topo,
		SwitchBufDepth: 2, AllowDeadlock: vcs < 2,
	}
	for s := 0; s < vcStudySources; s++ {
		src, sink := flit.EndpointID(s), flit.EndpointID(100+s)
		if err := topo.AddSource(src, topology.NodeID(s)); err != nil {
			return platform.Config{}, err
		}
		if err := topo.AddSink(sink, topology.NodeID(s)); err != nil {
			return platform.Config{}, err
		}
		dst := flit.EndpointID(100 + s/vcStudyW*vcStudyW + (s%vcStudyW+2)%vcStudyW)
		cfg.TGs = append(cfg.TGs, platform.TGSpec{
			Endpoint: src, Limit: uint64(perSource),
			Gen: &traffic.UniformConfig{
				LenMin: plen, LenMax: plen,
				Dst: traffic.DstConfig{Policy: traffic.DstFixed, Dsts: []flit.EndpointID{dst}},
			},
		})
		cfg.TRs = append(cfg.TRs, platform.TRSpec{
			Endpoint: sink, Mode: receptor.Stochastic, ExpectPackets: uint64(perSource),
		})
	}
	return cfg, nil
}

// vcStudyRun builds and runs one network of the study under a progress
// watchdog, so a wedged run ends at the abort instead of the budget.
func vcStudyRun(vcs, perSource int, plen uint16, maxCycles uint64) (cycles uint64, done bool, delivered uint64, err error) {
	cfg, err := VCStudyConfig(vcs, perSource, plen)
	if err != nil {
		return 0, false, 0, err
	}
	p, err := platform.Build(cfg)
	if err != nil {
		return 0, false, 0, err
	}
	defer p.Close()
	if _, err := p.AttachWatchdog(1_000); err != nil {
		return 0, false, 0, err
	}
	cycles, done = p.Run(maxCycles)
	return cycles, done, p.Totals().PacketsReceived, nil
}

// VCStudy sweeps packet lengths on the study torus.
func VCStudy(packetLens []uint16, perSource int, maxCycles uint64) (*VCStudyResult, error) {
	if len(packetLens) == 0 {
		packetLens = []uint16{1, 2, 4, 8, 16}
	}
	if perSource == 0 {
		perSource = 10
	}
	if maxCycles == 0 {
		maxCycles = 50_000
	}
	res := &VCStudyResult{PerSource: perSource}
	for _, plen := range packetLens {
		row := VCRow{PacketLen: plen}
		var err error
		row.WormholeCycles, row.WormholeDone, row.WormholeDelivered, err = vcStudyRun(1, perSource, plen, maxCycles)
		if err != nil {
			return nil, err
		}
		row.DatelineCycles, row.DatelineDone, row.DatelineDelivered, err = vcStudyRun(2, perSource, plen, maxCycles)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *VCStudyResult) Table() string {
	var sb strings.Builder
	total := uint64(vcStudySources * r.PerSource)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "flits/packet\twormhole delivered\twormhole cycles\tdateline delivered\tdateline cycles")
	for _, row := range r.Rows {
		wh := fmt.Sprintf("%d/%d", row.WormholeDelivered, total)
		if !row.WormholeDone {
			wh += " DEADLOCK"
		}
		dl := fmt.Sprintf("%d/%d", row.DatelineDelivered, total)
		if !row.DatelineDone {
			dl += " DEADLOCK"
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%d\n",
			row.PacketLen, wh, row.WormholeCycles, dl, row.DatelineCycles)
	}
	tw.Flush()
	return sb.String()
}
