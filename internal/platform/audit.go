// The restore audit (DESIGN.md §13): what no one snapshot section can
// check, checked once every section has loaded. A section validates its
// own component; a restored platform must also be one state, in which
// the sections agree with each other, or its first cycles would trip an
// invariant the datapath enforces by panicking.
package platform

import (
	"cmp"
	"fmt"
	"slices"

	"nocemu/internal/flit"
	"nocemu/internal/traffic"
)

// flying is one flit in flight, as the packet audit sorts it.
type flying struct {
	packet   flit.PacketID
	index    uint16
	length   uint16
	src, dst flit.EndpointID
}

// audit checks the restored platform as one state: every wire's credits
// are conserved on every channel; every switch input lane and every
// ejector continues the wormhole streams its wire carries; every flit,
// held-back demand and scripted record is for a sink; and every packet
// in flight is there once, from the flit its destination expects next
// through its tail.
func (p *Platform) audit() error {
	if err := p.auditCredits(); err != nil {
		return err
	}
	if err := p.swArena.CheckRestored(); err != nil {
		return err
	}
	for _, tr := range p.trs {
		if err := tr.Ejector().CheckRestored(); err != nil {
			return err
		}
	}
	for _, tg := range p.tgs {
		if d, ok := tg.Pending(); ok && p.trByEndpoint[d.Dst] == nil {
			return fmt.Errorf("TG %s holds a packet for endpoint %d, no sink", tg.ComponentName(), d.Dst)
		}
		if sg, ok := tg.Generator().(*traffic.ScriptGen); ok {
			for _, rec := range sg.Queued() {
				if p.trByEndpoint[rec.Dst] == nil {
					return fmt.Errorf("TG %s scripts a packet for endpoint %d, no sink", tg.ComponentName(), rec.Dst)
				}
			}
		}
	}
	return p.auditPackets()
}

// auditCredits checks that every wire conserves its credits on every
// channel: the sender's (held, and on their way back) and the
// receiver's flits (buffered, and on their way to it) add up to the
// receiver's depth. An injector sends on channel 0 alone, so its input
// lanes of the other channels hold nothing.
func (p *Platform) auditCredits() error {
	topo := p.cfg.Topology
	numVC := topo.NumVC()
	// A switch's link-driven ports come first, in link order (the
	// topology's canonical port order), so counting them link by link
	// names each link's output and input port.
	ports := make([]int, 2*topo.NumSwitches())
	for i, ls := range topo.Links() {
		from, to := p.switches[ls.From], p.switches[ls.To]
		o, in := ports[2*ls.From], ports[2*ls.To+1]
		ports[2*ls.From]++
		ports[2*ls.To+1]++
		for vc := 0; vc < numVC; vc++ {
			if n := from.Credits(o, vc) + to.Inbound(in, vc); n != to.BufDepth() {
				return creditError(p.links[i].ComponentName(), vc, n, to.BufDepth())
			}
		}
	}
	for _, tg := range p.tgs {
		inj := tg.Injector()
		e, _ := topo.Endpoint(inj.Endpoint())
		sw, in := p.switches[e.Switch], 0
		for k, ic := range topo.SwitchInputs(e.Switch) {
			if ic.Link == -1 && ic.Endpoint == e.ID {
				in = k
			}
		}
		for vc := 0; vc < numVC; vc++ {
			n := sw.Inbound(in, vc)
			if vc == 0 {
				n += inj.Credits()
			} else {
				n += sw.BufDepth()
			}
			if n != sw.BufDepth() {
				return creditError(tg.ComponentName(), vc, n, sw.BufDepth())
			}
		}
	}
	for _, tr := range p.trs {
		ej := tr.Ejector()
		e, _ := topo.Endpoint(ej.Endpoint())
		sw, o := p.switches[e.Switch], 0
		for k, oc := range topo.SwitchOutputs(e.Switch) {
			if oc.Link == -1 && oc.Endpoint == e.ID {
				o = k
			}
		}
		for vc := 0; vc < numVC; vc++ {
			if n := sw.Credits(o, vc) + ej.Inbound(vc); n != ej.Depth() {
				return creditError(tr.ComponentName(), vc, n, ej.Depth())
			}
		}
	}
	return nil
}

func creditError(wire string, vc, n, depth int) error {
	return fmt.Errorf("%s channel %d: credits and flits in flight add up to %d of %d", wire, vc, n, depth)
}

// auditPackets checks every packet in flight: its flits, wherever they
// are, agree on its source, destination and length, and are each index
// once from the one its destination's assembler expects through the tail.
func (p *Platform) auditPackets() error {
	n := 0
	p.eachFlit(func(*flit.Flit) { n++ })
	fly := make([]flying, 0, n)
	p.eachFlit(func(f *flit.Flit) {
		fly = append(fly, flying{f.Packet, f.Index, f.PacketLen, f.Src, f.Dst})
	})
	slices.SortFunc(fly, func(a, b flying) int {
		return cmp.Or(cmp.Compare(a.packet, b.packet), cmp.Compare(a.index, b.index))
	})
	for i := 0; i < len(fly); {
		f := fly[i]
		tr := p.trByEndpoint[f.dst]
		if tr == nil {
			return fmt.Errorf("packet %d in flight for endpoint %d, no sink", f.packet, f.dst)
		}
		got, want, begun := tr.Ejector().Progress(f.packet)
		if !begun {
			got, want = 0, f.length
		}
		j := i
		for ; j < len(fly) && fly[j].packet == f.packet; j++ {
			g := fly[j]
			if g.index != got+uint16(j-i) || g.length != want || g.src != f.src || g.dst != f.dst {
				return fmt.Errorf("packet %d in flight: flit %d of %d from %d to %d where flit %d of %d from %d to %d is due",
					f.packet, g.index, g.length, g.src, g.dst, got+uint16(j-i), want, f.src, f.dst)
			}
		}
		if last := fly[j-1]; last.index != last.length-1 {
			return fmt.Errorf("packet %d in flight without its flits %d to %d", f.packet, last.index+1, last.length-1)
		}
		i = j
	}
	return nil
}

// eachFlit calls fn on every flit the platform holds: queued at the
// injectors, on the wires, in the switches and at the ejectors.
func (p *Platform) eachFlit(fn func(*flit.Flit)) {
	for _, tg := range p.tgs {
		tg.Injector().Flits(fn)
	}
	p.wires.Flits(fn)
	for _, sw := range p.switches {
		sw.Flits(fn)
	}
	for _, tr := range p.trs {
		tr.Ejector().Flits(fn)
	}
}
