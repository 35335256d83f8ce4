package traffic

import (
	"fmt"

	"nocemu/internal/nic"
	"nocemu/internal/probe"
	"nocemu/internal/rng"
)

// TGConfig parameterizes a traffic-generator device.
type TGConfig struct {
	// Name is the engine component name.
	Name string
	// Seed initializes the TG's random registers.
	Seed uint32
	// Limit stops the generator after this many packets (0 = no limit;
	// trace generators also stop when the trace ends).
	Limit uint64
}

// TG is a complete traffic-generator device: parameter registers
// (exposed via internal/regmap), a packet generator, and a network
// interface. It is an engine component.
type TG struct {
	cfg  TGConfig
	gen  Generator
	inj  *nic.Injector
	lfsr *rng.LFSR

	pending    Demand
	hasPending bool
	offered    uint64
	backCycles uint64
	enabled    bool
}

// NewTG assembles a traffic generator from its parts.
func NewTG(cfg TGConfig, gen Generator, inj *nic.Injector) (*TG, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("traffic: TG with empty name")
	}
	if gen == nil || inj == nil {
		return nil, fmt.Errorf("traffic: TG %s missing generator or injector", cfg.Name)
	}
	return &TG{cfg: cfg, gen: gen, inj: inj, lfsr: rng.New(cfg.Seed), enabled: true}, nil
}

// ComponentName implements engine.Component.
func (t *TG) ComponentName() string { return t.cfg.Name }

// Generator returns the packet generator (for register-bank wiring).
func (t *TG) Generator() Generator { return t.gen }

// Injector returns the network interface.
func (t *TG) Injector() *nic.Injector { return t.inj }

// Pending returns the demand the TG holds back until its injector can
// accept it, if any.
func (t *TG) Pending() (Demand, bool) { return t.pending, t.hasPending }

// SetProbe attaches the tracing probe to the network interface (nil
// disables tracing).
func (t *TG) SetProbe(p *probe.Probe) { t.inj.SetProbe(p) }

// SetEnabled gates traffic creation; the control module uses it for the
// start/stop registers. Queued flits still drain while disabled.
func (t *TG) SetEnabled(on bool) { t.enabled = on }

// Enabled reports whether traffic creation is active.
func (t *TG) Enabled() bool { return t.enabled }

// SetLimit changes the packet budget (0 = unlimited); a software-only
// reconfiguration used between runs.
func (t *TG) SetLimit(n uint64) { t.cfg.Limit = n }

// Reseed rewrites the random-initialization registers.
func (t *TG) Reseed(seed uint32) { t.lfsr.Reseed(seed) }

// limitReached reports whether the packet budget is spent.
func (t *TG) limitReached() bool {
	return t.cfg.Limit > 0 && t.offered >= t.cfg.Limit
}

// Tick implements engine.Component: consult the generator (unless
// holding a backpressured demand), hand demands to the injector, and
// pump one flit onto the wire.
func (t *TG) Tick(cycle uint64) {
	if t.enabled && !t.hasPending && !t.limitReached() && !t.gen.Exhausted() {
		if t.gen.Step(cycle, t.lfsr, &t.pending) {
			t.hasPending = true
			t.offered++
		}
	}
	if t.hasPending {
		if t.inj.CanAccept(t.pending.Len) {
			if _, err := t.inj.Offer(t.pending.Dst, t.pending.Len, t.pending.Payload, cycle); err != nil {
				panic(fmt.Sprintf("traffic: TG %s: %v", t.cfg.Name, err))
			}
			t.hasPending = false
		} else {
			t.backCycles++
		}
	}
	t.inj.Pump(cycle)
}

// Commit implements engine.Component; the kernel never calls it.
func (t *TG) Commit(uint64) {}

// NextWake implements engine.Quiescable. The TG is quiet when it holds
// no backpressured demand, its source queue has drained, and the
// generator either will never emit again (budget/trace exhausted, or
// disabled — Done cannot change while quiet) or promises a pure
// countdown sleep, in which case the wake cycle is the first Step that
// may emit. Credits that come back meanwhile wait on the credit wire;
// SkipIdle collects them cycle for cycle as the skipped Pumps would
// have, so the counter stands where the every-cycle schedule has it.
func (t *TG) NextWake(cycle uint64) (uint64, bool) {
	if t.hasPending || !t.inj.Drained() {
		return 0, false
	}
	if !t.enabled || t.limitReached() || t.gen.Exhausted() {
		return ^uint64(0), true
	}
	n, ok := t.gen.Sleep(cycle)
	if !ok || n == 0 {
		return 0, false
	}
	return cycle + 1 + n, true
}

// SkipIdle implements engine.Quiescable: repay the generator the Step
// calls the skipped cycles would have made, and the injector the
// credits it would have collected. Nothing else advances per cycle
// while the TG is quiet (the injector neither stalls nor pumps with an
// empty queue).
func (t *TG) SkipIdle(from, n uint64) {
	if t.enabled && !t.hasPending && !t.limitReached() && !t.gen.Exhausted() {
		t.gen.SkipSteps(n)
	}
	t.inj.SkipIdle(from, n)
}

// Done implements engine.Stopper: the TG is done when its packet budget
// (or trace) is exhausted and every flit has left the network
// interface.
func (t *TG) Done() bool {
	if !t.limitReached() && !t.gen.Exhausted() {
		return false
	}
	return !t.hasPending && t.inj.Drained()
}

// TGStats is a snapshot of a traffic generator's counters.
type TGStats struct {
	// Offered counts packets created by the generator.
	Offered uint64
	// BackpressureCycles counts cycles a created packet waited for
	// space in the source queue.
	BackpressureCycles uint64
	// Injector holds the network-interface counters.
	Injector nic.InjectorStats
}

// Stats returns the TG counters.
func (t *TG) Stats() TGStats {
	return TGStats{
		Offered:            t.offered,
		BackpressureCycles: t.backCycles,
		Injector:           t.inj.Stats(),
	}
}

// ResetStats clears counters (not generator or queue state).
func (t *TG) ResetStats() {
	t.offered, t.backCycles = 0, 0
	t.inj.ResetStats()
}
