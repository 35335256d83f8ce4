// Package serve implements the nocserve co-simulation service
// (DESIGN.md §16): long-lived sessions pin a built platform, clients
// script transfers and read latency, occupancy and congestion answers
// back — all over the platform's register buses, exactly as an
// FPGA-hosted emulator would be interrogated, never by peeking at Go
// structs. A Manager multiplexes concurrent sessions over a platform
// pool with warm-start snapshots, parks idle sessions to disk, and
// keeps every session's response transcript a deterministic function
// of its own request stream.
package serve

import (
	"fmt"

	"nocemu/internal/control"
	"nocemu/internal/jsonio"
	"nocemu/internal/monitor"
	"nocemu/internal/platform"
	"nocemu/internal/regmap"
)

// busView answers session queries over the platform's register buses,
// through the device handles of monitor's TYPE-classified scan. The
// scan runs once per session attach (open, resume); everything else is
// read per request, so answers always reflect the committed state of
// the current cycle.
type busView struct{ *monitor.BusView }

func newBusView(p *platform.Platform) (*busView, error) {
	v, err := monitor.ScanBus(p.System())
	if err != nil {
		return nil, busErr(err)
	}
	return &busView{v}, nil
}

// busErr marks a bus access error as the service's; bus errors name the
// device and register themselves.
func busErr(err error) error { return fmt.Errorf("serve: %v", err) }

// cycle reads the engine cycle counter off the control module.
func (v *busView) cycle() uint64 {
	c, err := v.Ctrl.Read64(control.RegCycleLo)
	if err != nil {
		// The scan found the control module; a read error here means the
		// platform was torn down under the session.
		panic(fmt.Sprintf("serve: read CYCLE: %v", err))
	}
	return c
}

// flow scans the flow table of the tr-th TR device (spec order, as
// platform.TRDev numbers them) for src and returns its latency
// summary. A source the sink has not heard from yet is an all-zero
// row, not an error: the flow simply has no packets.
func (v *busView) flow(tr uint32, src uint16) (jsonio.ServeFlow, error) {
	d := v.TRs[tr]
	var fl jsonio.ServeFlow
	count, err := d.Read(regmap.RegFlowCount)
	if err != nil {
		return fl, busErr(err)
	}
	for i := uint32(0); i < count; i++ {
		if err := d.Write(regmap.RegFlowSel, i); err != nil {
			return fl, busErr(err)
		}
		s, err := d.Read(regmap.RegFlowSrc)
		if err != nil {
			return fl, busErr(err)
		}
		if s != uint32(src) {
			continue
		}
		if fl.Packets, err = d.Read64(regmap.RegFlowPackets); err != nil {
			return fl, busErr(err)
		}
		if fl.Mean, err = d.ReadF64(regmap.RegFlowMeanF64); err != nil {
			return fl, busErr(err)
		}
		if fl.Max, err = d.ReadF64(regmap.RegFlowMaxF64); err != nil {
			return fl, busErr(err)
		}
		if fl.Last, err = d.Read64(regmap.RegFlowLast); err != nil {
			return fl, busErr(err)
		}
		return fl, nil
	}
	return fl, nil
}

// stats aggregates the platform-wide statistics answer: every TR's
// receive counters (mean latency packet-weighted across sinks) and
// every switch's occupancy and blocked counters.
func (v *busView) stats() (jsonio.ServeStats, error) {
	var st jsonio.ServeStats
	var weighted float64
	for _, d := range v.TRs {
		var pk, fl, cong uint64
		var err error
		for _, c := range []struct {
			reg uint32
			dst *uint64
		}{
			{regmap.RegTRPackets, &pk},
			{regmap.RegTRFlits, &fl},
			{regmap.RegTRCongestion, &cong},
		} {
			if *c.dst, err = d.Read64(c.reg); err != nil {
				return st, busErr(err)
			}
		}
		mean, err := d.ReadF64(regmap.RegTRNetLatMeanF64)
		if err != nil {
			return st, busErr(err)
		}
		max, err := d.ReadF64(regmap.RegTRNetLatMaxF64)
		if err != nil {
			return st, busErr(err)
		}
		st.Packets += pk
		st.Flits += fl
		st.Congestion += cong
		weighted += mean * float64(pk)
		if max > st.LatencyMax {
			st.LatencyMax = max
		}
	}
	if st.Packets > 0 {
		st.LatencyMean = weighted / float64(st.Packets)
	}
	for _, d := range v.Switches {
		occ, err := d.Read64(regmap.RegSwOccupancy)
		if err != nil {
			return st, busErr(err)
		}
		blk, err := d.Read64(regmap.RegSwBlocked)
		if err != nil {
			return st, busErr(err)
		}
		st.Occupancy += occ
		st.Blocked += blk
	}
	return st, nil
}
