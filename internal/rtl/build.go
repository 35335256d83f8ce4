package rtl

import (
	"fmt"

	"nocemu/internal/arb"
	"nocemu/internal/eventsim"
	"nocemu/internal/flit"
	"nocemu/internal/platform"
	"nocemu/internal/rng"
	"nocemu/internal/routing"
	"nocemu/internal/topology"
)

// Platform is an RTL simulation of an emulation platform.
type Platform struct {
	kernel *eventsim.Kernel
	clock  *eventsim.Clock
	tgs    []*rtlTG
	trs    map[flit.EndpointID]*rtlTR
}

// Build constructs the RTL model for a platform configuration. Random
// and adaptive route selection are not modelled at RTL (the experiments
// use first/packet-modulo).
func Build(cfg platform.Config) (*Platform, error) {
	full, err := platform.Normalize(cfg)
	if err != nil {
		return nil, err
	}
	cfg = full
	if cfg.Select == routing.Adaptive {
		return nil, fmt.Errorf("rtl: adaptive selection not modelled")
	}
	topo := cfg.Topology
	if n := topo.NumVC(); n > 1 {
		return nil, fmt.Errorf("rtl: %d virtual channels per port not modelled (topology %s)", n, topo.Name())
	}

	table, err := platform.RouteTable(cfg)
	if err != nil {
		return nil, err
	}

	k := eventsim.New()
	// Half-period of 4 time units leaves room for clock-to-Q and cone
	// propagation delays inside each cycle.
	clk := eventsim.NewClock(k, "clk", 4)
	p := &Platform{kernel: k, clock: clk, trs: make(map[flit.EndpointID]*rtlTR)}

	// Control module: its cycle counter registers update every cycle.
	ctlBank := newRegBank(k, "ctl.cycle")
	var ctlCycle uint64
	ctlProc := k.NewProcess("ctl", func() {
		if clk.Rising() {
			ctlCycle++
			ctlBank.set(ctlCycle)
		}
	})
	clk.Sig.Sensitize(ctlProc)

	// Ports: one per topology link, plus one per endpoint.
	linkPorts := make([]*port, len(topo.Links()))
	for i, ls := range topo.Links() {
		linkPorts[i] = newPort(k, fmt.Sprintf("l%d.s%d-s%d", i, ls.From, ls.To))
	}

	// Switches.
	switches := make([]*rtlSwitch, topo.NumSwitches())
	epInPorts := make(map[flit.EndpointID]*port)  // TG -> switch
	epOutPorts := make(map[flit.EndpointID]*port) // switch -> TR
	for s := topology.NodeID(0); int(s) < topo.NumSwitches(); s++ {
		ins, outs := topo.SwitchInputs(s), topo.SwitchOutputs(s)
		if len(ins) == 0 || len(outs) == 0 {
			return nil, fmt.Errorf("rtl: switch %d lacks ports", s)
		}
		sw := &rtlSwitch{
			node: s, table: table, sel: cfg.Select,
			lfsr:      rng.New(cfg.Seed ^ uint32(0x5157C000+s)),
			inBufs:    make([]*rtlFIFO, len(ins)),
			inRx:      make([]*rxState, len(ins)),
			inRoute:   make([]int, len(ins)),
			outTx:     make([]*txState, len(outs)),
			lock:      make([]int, len(outs)),
			arbs:      make([]arb.Arbiter, len(outs)),
			occBanks:  make([]*regBank, len(ins)),
			credBanks: make([]*regBank, len(outs)),
			lockBank:  newRegBank(k, fmt.Sprintf("sw%d.lock", s)),
			statBank:  newRegBank(k, fmt.Sprintf("sw%d.stat", s)),
		}
		for i, ic := range ins {
			sw.inBufs[i] = newRTLFIFO(cfg.SwitchBufDepth)
			sw.inRoute[i] = -1
			sw.occBanks[i] = newRegBank(k, fmt.Sprintf("sw%d.occ%d", s, i))
			var pt *port
			if ic.Link >= 0 {
				pt = linkPorts[ic.Link]
			} else {
				pt = newPort(k, fmt.Sprintf("inj%d", ic.Endpoint))
				epInPorts[ic.Endpoint] = pt
			}
			sw.inRx[i] = newRx(pt)
		}
		for o, oc := range outs {
			sw.lock[o] = -1
			sw.credBanks[o] = newRegBank(k, fmt.Sprintf("sw%d.cred%d", s, o))
			a, err := arb.New(cfg.Arb, len(ins))
			if err != nil {
				return nil, err
			}
			sw.arbs[o] = a
			var pt *port
			credits := cfg.SwitchBufDepth
			if oc.Link >= 0 {
				pt = linkPorts[oc.Link]
			} else {
				pt = newPort(k, fmt.Sprintf("ej%d", oc.Endpoint))
				epOutPorts[oc.Endpoint] = pt
			}
			sw.outTx[o] = newTx(pt, credits)
		}
		switches[s] = sw
		proc := k.NewProcess(fmt.Sprintf("sw%d", s), func() {
			if clk.Rising() {
				sw.onEdge()
			}
		})
		clk.Sig.Sensitize(proc)
	}

	// Traffic generators (same generators and seeds as the emulator).
	for _, spec := range cfg.TGs {
		gen, err := platform.BuildGenerator(spec)
		if err != nil {
			return nil, err
		}
		pt, ok := epInPorts[spec.Endpoint]
		if !ok {
			return nil, fmt.Errorf("rtl: no injection port for endpoint %d", spec.Endpoint)
		}
		tg := &rtlTG{
			gen: gen, lfsr: rng.New(platform.DeriveTGSeed(cfg.Seed, spec)),
			limit: spec.Limit, maxQ: spec.QueueFlits, queue: make([]*flit.Flit, spec.QueueFlits),
			ep:        spec.Endpoint,
			tx:        newTx(pt, cfg.SwitchBufDepth),
			queueBank: newRegBank(k, fmt.Sprintf("tg%d.queue", spec.Endpoint)),
			statBank:  newRegBank(k, fmt.Sprintf("tg%d.stat", spec.Endpoint)),
		}
		p.tgs = append(p.tgs, tg)
		proc := k.NewProcess(fmt.Sprintf("tg%d", spec.Endpoint), func() {
			if clk.Rising() {
				tg.onEdge()
			}
		})
		clk.Sig.Sensitize(proc)
	}

	// Traffic receptors.
	for _, spec := range cfg.TRs {
		pt, ok := epOutPorts[spec.Endpoint]
		if !ok {
			return nil, fmt.Errorf("rtl: no ejection port for endpoint %d", spec.Endpoint)
		}
		depth := spec.BufDepth
		if depth == 0 {
			depth = cfg.SwitchBufDepth
		}
		tr := &rtlTR{
			ep: spec.Endpoint, rx: newRx(pt),
			buf: newRTLFIFO(depth), asm: flit.NewAssembler(),
			rtBank:  newRegBank(k, fmt.Sprintf("tr%d.rt", spec.Endpoint)),
			cntBank: newRegBank(k, fmt.Sprintf("tr%d.cnt", spec.Endpoint)),
		}
		p.trs[spec.Endpoint] = tr
		proc := k.NewProcess(fmt.Sprintf("tr%d", spec.Endpoint), func() {
			if clk.Rising() {
				tr.onEdge()
			}
		})
		clk.Sig.Sensitize(proc)
	}
	return p, nil
}

// clockPeriod is the simulation-time length of one clock cycle (two
// half-periods of 4 units).
const clockPeriod = 8

// RunCycles advances the RTL simulation by n clock cycles.
func (p *Platform) RunCycles(n uint64) {
	p.kernel.RunUntil(p.kernel.Now() + eventsim.Time(clockPeriod*n))
}

// KernelStats exposes the event kernel's dynamic-work counters.
func (p *Platform) KernelStats() eventsim.Stats { return p.kernel.Stats() }

// PacketsReceived returns total packets delivered to all receptors.
func (p *Platform) PacketsReceived() uint64 {
	var n uint64
	for _, tr := range p.trs {
		n += tr.packets
	}
	return n
}

// PacketsSent returns total packets injected by all generators.
func (p *Platform) PacketsSent() uint64 {
	var n uint64
	for _, tg := range p.tgs {
		n += tg.packetsSent
	}
	return n
}

// Done reports whether all generators are exhausted/limited with empty
// queues and every injected packet has been received.
func (p *Platform) Done() bool {
	for _, tg := range p.tgs {
		if !tg.done() {
			return false
		}
	}
	return p.PacketsSent() == p.PacketsReceived()
}
