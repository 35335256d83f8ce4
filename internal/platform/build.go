package platform

import (
	"fmt"

	"nocemu/internal/bus"
	"nocemu/internal/control"
	"nocemu/internal/engine"
	"nocemu/internal/fault"
	"nocemu/internal/flit"
	"nocemu/internal/link"
	"nocemu/internal/nic"
	"nocemu/internal/probe"
	"nocemu/internal/receptor"
	"nocemu/internal/regmap"
	"nocemu/internal/routing"
	"nocemu/internal/switchfab"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

// Bus assignment: control module on bus 0 slot 0, switches after it,
// TGs on bus 1, TRs on bus 2, auxiliary devices (flit pool at slot 0,
// the one device of every inter-switch link at slot 1, the probe after
// it) on bus 3.
const (
	BusControl = 0
	BusTG      = 1
	BusTR      = 2
	BusAux     = 3
)

// Platform is a fully wired emulation platform.
type Platform struct {
	cfg   Config
	eng   *engine.Engine
	sys   *bus.System
	table *routing.Table

	switches []*switchfab.Switch
	tgs      []*traffic.TG
	trs      []*receptor.TR
	links    []*link.Link // indexed by topology link index
	pool     *flit.Pool
	ctrl     *control.Module
	proc     *control.Processor

	// collector is the event-tracing subsystem; nil unless Config.Trace
	// is set. Probes are issued in build order, which fixes ring ids and
	// therefore the canonical event order.
	collector *probe.Collector

	tgByEndpoint map[flit.EndpointID]*traffic.TG
	trByEndpoint map[flit.EndpointID]*receptor.TR

	// arms is the wires' arm-on-input table; nil unless the engine
	// gates per element (AttachWatchdog adds the watchdog to the
	// injection wires' rows).
	arms *engine.ArmTable
	// wd and faults remember post-build attachments so snapshots cover
	// them and Fork can replicate them on rebuilt platforms.
	wd         *Watchdog
	wdPatience uint64
	faults     []*fault.Controller
	faultSpecs [][]fault.Spec
	// plan is the snapshot section walk and initSnap the cycle-zero
	// snapshot backing FullReset, both captured when construction or a
	// post-build attachment finishes (captureInit).
	plan     []section
	initSnap []byte
	// wires and swArena are the dense stores every wire and switch lives
	// in; both are snapshot sections (snapshot.go). Only the switches are
	// an engine arena: a wire needs no evaluation, a faulted one included
	// (its fault acts on Send and SetFault), so the wires are no component.
	wires   *link.Arena
	swArena *switchfab.Arena
}

// Build compiles a platform from its configuration.
func Build(cfg Config) (*Platform, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology

	// Routing table generation plus overrides, then validation and the
	// deadlock check.
	table, err := RouteTable(cfg)
	if err != nil {
		return nil, err
	}

	p := &Platform{
		cfg: cfg, eng: engine.New(), sys: bus.NewSystem(), table: table,
		tgByEndpoint: make(map[flit.EndpointID]*traffic.TG),
		trByEndpoint: make(map[flit.EndpointID]*receptor.TR),
	}
	// The flit pool: every injecting endpoint gets a freelist shard and
	// every terminal path (ejection, fault drop, end-of-run drain)
	// releases flits back, so steady-state emulation allocates nothing.
	p.pool = flit.NewPool()
	if cfg.Trace != nil {
		p.collector = probe.NewCollector(*cfg.Trace)
	}
	// Dense stores for the high-population types (arena.go in link and
	// switchfab; only the switches are an engine arena): the wire count
	// and switch count are both known from the topology, so the backing
	// arrays are sized exactly.
	// The topology also says how many virtual channels each port carries
	// (its generator's "vcs" parameter); every switch and wire pair is
	// built with that many lanes, and the endpoints use channel 0 of
	// their injection and ejection wires.
	numVC := topo.NumVC()
	p.wires = link.NewArena("wires", len(topo.Links())+len(cfg.TGs)+len(cfg.TRs), numVC)
	p.wires.SetDropHandler(p.pool.Release)
	p.swArena = switchfab.NewArena("switches", topo.NumSwitches())
	swTarget := func(s topology.NodeID) engine.Target {
		return engine.Target{Name: "switches", Elem: int(s)} // arena index == node
	}
	// newWires appends one flit link with its credit links to the wire
	// arena and records who writes and who reads the flit link, for the
	// arm table. The arena's elements are the inter-switch links in
	// topology order, then the injection wires in TG order, then the
	// ejection wires. Probes attach later, at each device's registration,
	// because probe ids follow build order.
	var producers, consumers []engine.Target
	newWires := func(lname, cname string, producer, consumer engine.Target) (*link.Link, []*link.CreditLink) {
		l, c := p.wires.NewPair(lname, cname)
		producers = append(producers, producer)
		consumers = append(consumers, consumer)
		return l, c
	}

	// Switches.
	p.switches = make([]*switchfab.Switch, topo.NumSwitches())
	for s := topology.NodeID(0); int(s) < topo.NumSwitches(); s++ {
		ins, outs := topo.SwitchInputs(s), topo.SwitchOutputs(s)
		numIn, numOut := len(ins), len(outs)
		if numIn == 0 || numOut == 0 {
			return nil, fmt.Errorf("platform %s: switch %d has %d inputs and %d outputs; every switch needs both",
				cfg.Name, s, numIn, numOut)
		}
		swCfg := switchfab.Config{
			Name: fmt.Sprintf("sw%d", s), Node: s,
			NumIn: numIn, NumOut: numOut, NumVC: numVC,
			BufDepth: cfg.SwitchBufDepth, Arb: cfg.Arb, Select: cfg.Select,
			Table: table, Seed: cfg.Seed ^ uint32(0x5157C000+s),
		}
		sw, err := p.swArena.New(swCfg)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		p.switches[s] = sw
	}

	// Inter-switch links: one flit link + one credit link per virtual
	// channel each.
	specs := topo.Links()
	p.links = make([]*link.Link, len(specs))
	credits := make([][]*link.CreditLink, len(specs))
	for i, ls := range specs { // the wire arena's elements [0, len(specs))
		p.links[i], credits[i] = newWires(
			fmt.Sprintf("link%d.s%d-s%d", i, ls.From, ls.To),
			fmt.Sprintf("credit%d.s%d-s%d", i, ls.To, ls.From),
			swTarget(ls.From), swTarget(ls.To))
	}
	// Wire link endpoints to switch ports by canonical port order.
	for s := topology.NodeID(0); int(s) < topo.NumSwitches(); s++ {
		for portIdx, ic := range topo.SwitchInputs(s) {
			if ic.Link >= 0 {
				if err := p.switches[s].ConnectInput(portIdx, p.links[ic.Link], credits[ic.Link]...); err != nil {
					return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
				}
			}
		}
		for portIdx, oc := range topo.SwitchOutputs(s) {
			if oc.Link >= 0 {
				downstream := p.switches[specs[oc.Link].To]
				if err := p.switches[s].ConnectOutput(portIdx, p.links[oc.Link], downstream.BufDepth(), credits[oc.Link]...); err != nil {
					return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
				}
			}
		}
	}

	// Traffic generators.
	for i, spec := range cfg.TGs {
		ep, _ := topo.Endpoint(spec.Endpoint)
		sw := p.switches[ep.Switch]
		portIdx := -1
		for pi, ic := range topo.SwitchInputs(ep.Switch) {
			if ic.Link == -1 && ic.Endpoint == spec.Endpoint {
				portIdx = pi
				break
			}
		}
		if portIdx < 0 {
			return nil, fmt.Errorf("platform %s: no input port for TG endpoint %d", cfg.Name, spec.Endpoint)
		}
		injL, injCr := newWires(fmt.Sprintf("inj%d", spec.Endpoint), fmt.Sprintf("injcr%d", spec.Endpoint),
			engine.Target{Name: fmt.Sprintf("tg%d", spec.Endpoint)}, swTarget(ep.Switch))
		if err := sw.ConnectInput(portIdx, injL, injCr...); err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		shard := p.pool.Shard(fmt.Sprintf("tg%d", spec.Endpoint), spec.Endpoint)
		inj, err := nic.NewInjector(spec.Endpoint, injL, injCr[0], sw.BufDepth(), spec.QueueFlits, shard)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		gen, err := BuildGenerator(spec)
		if err != nil {
			return nil, fmt.Errorf("platform %s: TG %d: %w", cfg.Name, i, err)
		}
		seed := DeriveTGSeed(cfg.Seed, spec)
		tg, err := traffic.NewTG(traffic.TGConfig{
			Name: fmt.Sprintf("tg%d", spec.Endpoint), Seed: seed, Limit: spec.Limit,
		}, gen, inj)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		p.tgs = append(p.tgs, tg)
		p.tgByEndpoint[spec.Endpoint] = tg
		tg.SetProbe(p.collector.NewProbe(tg.ComponentName()))
		p.eng.MustRegister(tg)
		injL.SetProbe(p.collector.NewProbe(injL.ComponentName()))
	}

	// Traffic receptors.
	for _, spec := range cfg.TRs {
		ep, _ := topo.Endpoint(spec.Endpoint)
		sw := p.switches[ep.Switch]
		portIdx := -1
		for pi, oc := range topo.SwitchOutputs(ep.Switch) {
			if oc.Link == -1 && oc.Endpoint == spec.Endpoint {
				portIdx = pi
				break
			}
		}
		if portIdx < 0 {
			return nil, fmt.Errorf("platform %s: no output port for TR endpoint %d", cfg.Name, spec.Endpoint)
		}
		trName := fmt.Sprintf("tr%d", spec.Endpoint)
		ejL, ejCr := newWires(fmt.Sprintf("ej%d", spec.Endpoint), fmt.Sprintf("ejcr%d", spec.Endpoint),
			swTarget(ep.Switch), engine.Target{Name: trName})
		depth := spec.BufDepth
		if depth == 0 {
			depth = cfg.SwitchBufDepth
		}
		ej, err := nic.NewEjector(spec.Endpoint, ejL, ejCr[0], depth, p.pool)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		if err := sw.ConnectOutput(portIdx, ejL, ej.Depth(), ejCr...); err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		tr, err := receptor.New(receptor.Config{
			Name: trName, Endpoint: spec.Endpoint,
			Mode: spec.Mode, ExpectPackets: spec.ExpectPackets,
			SizeBinWidth: spec.SizeBinWidth, SizeBins: spec.SizeBins,
			GapBinWidth: spec.GapBinWidth, GapBins: spec.GapBins,
			LatBinWidth: spec.LatBinWidth, LatBins: spec.LatBins,
			RecordTrace: spec.RecordTrace, TrackLast: spec.TrackLast,
		}, ej)
		if err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		p.trs = append(p.trs, tr)
		p.trByEndpoint[spec.Endpoint] = tr
		tr.SetProbe(p.collector.NewProbe(tr.ComponentName()))
		p.eng.MustRegister(tr)
		ejL.SetProbe(p.collector.NewProbe(ejL.ComponentName()))
	}

	// Register switches and inter-switch wires after endpoints so
	// engine names stay grouped; order does not affect results.
	for _, sw := range p.switches {
		if err := sw.CheckWired(); err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		sw.SetProbe(p.collector.NewProbe(sw.ComponentName()))
	}
	p.eng.MustRegisterArena(p.swArena)
	for _, l := range p.links {
		l.SetProbe(p.collector.NewProbe(l.ComponentName()))
	}
	// The wires need no evaluation, so the wire arena is no component.
	// They read the engine's clock for what they derive from it (CYCLES,
	// BUSY and FLITS between runs, HELD, snapshots, a fault's cycle).
	p.wires.SetClock(p.eng.Cycle)
	// The collector registers after every data component so its serial
	// Tick drains behind them; the samplers read only skip-debt-free
	// state as of the start of the sampling cycle (switch occupancy and
	// link busy-cycles), keeping boundary samples bit-identical across
	// kernels and gating modes.
	if p.collector != nil {
		for _, sw := range p.switches {
			p.collector.AddOccupancySampler(sw.BufferedFlitsAt)
		}
		for _, l := range p.links {
			p.collector.AddBusySampler(l.BusyAt)
		}
		p.collector.SetClock(p.eng.Cycle)
		p.eng.MustRegister(p.collector)
		if cfg.Trace.Sched {
			p.eng.SetSchedTrace(p.collector)
		}
	}

	// Bus attachment and control plane.
	enablers := make([]control.Enabler, len(p.tgs))
	for i, tg := range p.tgs {
		enablers[i] = tg
	}
	ctrl, err := control.NewModule("ctl", p.eng.Cycle, enablers, len(p.trs), len(p.switches))
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
	}
	p.ctrl = ctrl
	// Every device gets an address, in the same order at every size: a
	// bus holds bus.DevicesPerBus devices and the links share one. A
	// device is a bank that declares its registers on first access
	// (regmap.Lazy): Build declares none.
	var attachErr error
	attach := func(b uint32, d bus.Device) {
		if attachErr == nil {
			_, attachErr = p.sys.AttachNext(b, d)
		}
	}
	attach(BusControl, ctrl)
	for _, sw := range p.switches {
		attach(BusControl, regmap.NewSwitchDevice(sw))
	}
	for _, tg := range p.tgs {
		attach(BusTG, regmap.NewTGDevice(tg))
	}
	for _, tr := range p.trs {
		attach(BusTR, regmap.NewTRDevice(tr))
	}
	attach(BusAux, regmap.NewPoolDevice(p.pool))
	attach(BusAux, regmap.NewLinkDevice(p.links))
	if p.collector != nil {
		attach(BusAux, regmap.NewProbeDevice(p.collector))
	}
	if attachErr != nil {
		return nil, fmt.Errorf("platform %s: %w", cfg.Name, attachErr)
	}
	// How the engine walks a cycle (DESIGN.md §7): gated unless
	// cfg.NoGate, and then on a crew each run hires where one pays and
	// on the caller's goroutine alone where not. Results are
	// bit-identical whichever it is.
	p.eng.SetGated(!cfg.NoGate)
	proc, err := control.NewProcessor(p.sys, p.eng)
	if err != nil {
		return nil, err
	}
	p.proc = proc
	// A gated engine parks individual components and arena elements,
	// which requires the arm-on-input rule on every wire's Send path: a
	// flit sent to a parked switch or receptor wakes it for the next
	// cycle, the first it can take the flit in; credits wake nobody; the
	// table knows who writes each wire too, so that on a crew the wake
	// queues on the writer's list. While its gates stand down — on a
	// network too busy for them — the engine switches the hook off and
	// on again.
	if !cfg.NoGate {
		if p.arms, err = p.eng.ArmTable(producers, consumers); err != nil {
			return nil, fmt.Errorf("platform %s: %w", cfg.Name, err)
		}
		p.wires.SetHooks(p.arms.Hook())
	}
	// Emit-time arming: any probe emission wakes the collector so ring
	// fills never depend on the parking schedule (which would make drops
	// — and thus the exported stream — schedule-dependent). The armer is
	// a no-op on an engine that parks nothing.
	if p.collector != nil {
		if arm, ok := p.eng.Armer(engine.Target{Name: "probe"}); ok {
			p.collector.SetArm(arm)
		}
	}
	// Capture the cycle-zero snapshot backing FullReset. Post-build
	// attachments (AttachWatchdog, AddFaults) re-capture it.
	p.captureInit()
	return p, nil
}

// DeriveTGSeed returns the random seed a TG gets: the spec's own seed,
// or a platform-seed-derived default. Exported so alternative backends
// (internal/rtl, internal/tlm) generate identical traffic.
func DeriveTGSeed(platformSeed uint32, spec TGSpec) uint32 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return platformSeed*2654435761 + uint32(spec.Endpoint) + 1
}

// BuildGenerator instantiates the generator a TG spec describes: the
// spec's model, overlaid with a script queue when the spec asks for it,
// or the pure script source when it names no model. Exported so
// alternative backends drive the same traffic models.
func BuildGenerator(spec TGSpec) (traffic.Generator, error) {
	if spec.Gen == nil {
		return traffic.NewScript(nil), nil
	}
	gen, err := spec.Gen.New()
	if err != nil {
		return nil, fmt.Errorf("%s model: %w", spec.Gen.Model(), err)
	}
	if spec.Scripted {
		return traffic.NewScript(gen), nil
	}
	return gen, nil
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.cfg.Name }

// Config returns the (defaulted) configuration the platform was built
// from.
func (p *Platform) Config() Config { return p.cfg }

// Engine returns the cycle engine.
func (p *Platform) Engine() *engine.Engine { return p.eng }

// Close does nothing: a platform holds no goroutine between runs, since
// a run's crew ends with it. It stays because the benchmark harness
// (bench/) still calls it.
func (p *Platform) Close() {}

// System returns the internal bus system.
func (p *Platform) System() *bus.System { return p.sys }

// Processor returns the control processor.
func (p *Platform) Processor() *control.Processor { return p.proc }

// Switches returns the switches indexed by topology node.
func (p *Platform) Switches() []*switchfab.Switch { return p.switches }

// TGs returns the traffic generators in spec order.
func (p *Platform) TGs() []*traffic.TG { return p.tgs }

// TRs returns the traffic receptors in spec order.
func (p *Platform) TRs() []*receptor.TR { return p.trs }

// TG returns the generator for an endpoint.
func (p *Platform) TG(ep flit.EndpointID) (*traffic.TG, bool) {
	tg, ok := p.tgByEndpoint[ep]
	return tg, ok
}

// TR returns the receptor for an endpoint.
func (p *Platform) TR(ep flit.EndpointID) (*receptor.TR, bool) {
	tr, ok := p.trByEndpoint[ep]
	return tr, ok
}

// Pool returns the platform's flit pool (accounting: Live, Acquired,
// Released). Read it only while the platform is quiesced.
func (p *Platform) Pool() *flit.Pool { return p.pool }

// Unmapped is always 0: every device has a bus address at any size. It
// stays only because the benchmark harness (bench/kernel.go) calls it.
func (p *Platform) Unmapped() int { return 0 }

// Probe returns the event-tracing collector, or nil when the platform
// was built without Config.Trace. Read (export, metrics) only while the
// platform is quiesced.
func (p *Platform) Probe() *probe.Collector { return p.collector }

// Drain releases every in-flight flit back to the pool: link wires
// (including flits held by stuck faults), switch input buffers (with
// their wormhole locks force-released), injector source queues and
// ejector buffers. After Drain the pool's Live count must be zero —
// any residue is a leaked flit. The run is over once drained: packets
// caught mid-flight are abandoned, so continue with a fresh platform
// rather than more cycles. Statistics stay readable.
func (p *Platform) Drain() {
	release := func(f *flit.Flit) { p.pool.Release(f, p.eng.Cycle()) }
	p.wires.Drain(release)
	p.swArena.Drain(release)
	for _, tg := range p.tgs {
		tg.Injector().Drain(release)
	}
	for _, tr := range p.trs {
		tr.Ejector().Drain(release)
	}
}

// Link returns the inter-switch link for a topology link index.
func (p *Platform) Link(i int) (*link.Link, bool) {
	if i < 0 || i >= len(p.links) {
		return nil, false
	}
	return p.links[i], true
}

// Run advances the platform until all stoppers are done or maxCycles
// elapse.
func (p *Platform) Run(maxCycles uint64) (uint64, bool) {
	return p.eng.RunUntil(maxCycles)
}

// RunCycles advances exactly n cycles.
func (p *Platform) RunCycles(n uint64) { p.eng.Run(n) }

// ResetStats clears every statistic counter (switches, links, TGs, TRs)
// without disturbing in-flight state — used to exclude warm-up from
// measurements.
func (p *Platform) ResetStats() {
	for _, sw := range p.switches {
		sw.ResetStats()
	}
	for _, l := range p.links {
		l.ResetStats()
	}
	for _, tg := range p.tgs {
		tg.ResetStats()
	}
	for _, tr := range p.trs {
		tr.ResetStats()
	}
}
