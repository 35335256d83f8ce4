package platform

import (
	"fmt"

	"nocemu/internal/fault"
)

// Watchdog aborts a run when traffic is in flight but no receptor makes
// progress for `patience` cycles — the symptom of a routing deadlock
// (e.g. a cyclic wormhole dependency) or a permanently stuck link.
// It implements engine.Aborter, so Platform.Run stops as soon as it
// fires.
type Watchdog struct {
	name     string
	p        *Platform
	patience uint64

	lastRecv   uint64
	lastChange uint64
	stalled    bool
	stalledAt  uint64
}

// AttachWatchdog registers a progress watchdog with the given patience
// (cycles without receptor progress while flits are outstanding).
func (p *Platform) AttachWatchdog(patience uint64) (*Watchdog, error) {
	if patience == 0 {
		return nil, fmt.Errorf("platform %s: watchdog with zero patience", p.cfg.Name)
	}
	if p.wd != nil {
		return nil, fmt.Errorf("platform %s: watchdog already attached", p.cfg.Name)
	}
	w := &Watchdog{name: "watchdog", p: p, patience: patience}
	if err := p.eng.Register(w); err != nil {
		return nil, err
	}
	// On a gated sequential platform the watchdog parks once the network
	// drains; the first send after a drain is always an injection, so
	// re-arming it from the injection wires alone is sufficient (no other
	// wire can fire while sent == recv). They follow the inter-switch
	// links in the wire arena, in TG order.
	if p.arms != nil {
		for i := range p.tgs {
			if err := p.arms.Also(len(p.links)+i, w.name); err != nil {
				return nil, err
			}
		}
	}
	p.wd, p.wdPatience = w, patience
	// The watchdog adds a snapshot section; refresh the cycle-zero
	// snapshot backing FullReset (attachment happens before the run).
	p.captureInit()
	return w, nil
}

// ComponentName implements engine.Component.
func (w *Watchdog) ComponentName() string { return w.name }

// TickSerially implements engine.SerialTicker: the watchdog's Tick sums
// statistics owned by every TG and TR, so the parallel kernel must
// evaluate it alone, after every worker's share of the cycle. Registration after
// platform build keeps it behind the devices it observes, which makes
// the serialized evaluation bit-identical to the sequential kernel.
func (w *Watchdog) TickSerially() {}

// Tick implements engine.Component.
func (w *Watchdog) Tick(cycle uint64) {
	var sent, recv uint64
	for _, tg := range w.p.tgs {
		sent += tg.Stats().Injector.FlitsSent
	}
	for _, tr := range w.p.trs {
		recv += tr.Stats().Flits
	}
	if recv != w.lastRecv {
		w.lastRecv, w.lastChange = recv, cycle
		return
	}
	if sent > recv && cycle-w.lastChange > w.patience && !w.stalled {
		w.stalled = true
		w.stalledAt = cycle
	}
}

// Commit implements engine.Component; the kernel never calls it.
func (w *Watchdog) Commit(uint64) {}

// NextWake implements engine.Quiescable. The watchdog is quiet only
// when the network is fully drained (every sent flit consumed and the
// progress tracker caught up): then both Tick branches are no-ops at
// any cycle, so the stall countdown cannot advance while parked. Any
// flit-link Send re-arms it (the platform wires the hook), so the
// countdown toward an abort is never skipped past — a deadlocked
// network keeps it active every cycle, exactly like the naive schedule.
func (w *Watchdog) NextWake(cycle uint64) (uint64, bool) {
	var sent, recv uint64
	for _, tg := range w.p.tgs {
		sent += tg.Stats().Injector.FlitsSent
	}
	for _, tr := range w.p.trs {
		recv += tr.Stats().Flits
	}
	return ^uint64(0), sent == recv && recv == w.lastRecv
}

// SkipIdle implements engine.Quiescable: a drained watchdog tick
// advances no counters.
func (w *Watchdog) SkipIdle(from, n uint64) {}

// Aborted implements engine.Aborter.
func (w *Watchdog) Aborted() bool { return w.stalled }

// Stalled reports whether the watchdog fired, and at which cycle.
func (w *Watchdog) Stalled() (bool, uint64) { return w.stalled, w.stalledAt }

// AddFaults registers a fault-injection campaign against the platform's
// inter-switch links and returns its controller. Must be called before
// the run starts.
func (p *Platform) AddFaults(specs []fault.Spec) (*fault.Controller, error) {
	// Campaign names number the registry as it stood when the wire arena
	// held a slot in it: snapshot sections and traces carry them.
	ctrl, err := fault.NewController(fmt.Sprintf("faults%d", p.eng.NumComponents()+1), p.links, specs)
	if err != nil {
		return nil, err
	}
	ctrl.SetProbe(p.collector.NewProbe(ctrl.ComponentName()))
	if err := p.eng.Register(ctrl); err != nil {
		return nil, err
	}
	p.faults = append(p.faults, ctrl)
	p.faultSpecs = append(p.faultSpecs, append([]fault.Spec(nil), specs...))
	// The controller adds a snapshot section; refresh the cycle-zero
	// snapshot backing FullReset (campaigns are added before the run).
	p.captureInit()
	return ctrl, nil
}

// CorruptedFlits sums the corruption detections of every receptor's
// network interface.
func (p *Platform) CorruptedFlits() uint64 {
	var n uint64
	for _, tr := range p.trs {
		n += tr.Ejector().CorruptedFlits()
	}
	return n
}
