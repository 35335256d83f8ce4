package probe

import (
	"fmt"
	"io"
	"sort"
)

// Config parameterizes the tracing subsystem (platform Config.Trace,
// JSON "trace").
type Config struct {
	// Window is the metrics sampling window in cycles (default 64):
	// event counters are bucketed per window and occupancy/utilization
	// are sampled at every window boundary.
	Window uint64 `json:"window,omitempty"`
	// RingCap is the per-probe ring capacity in events (default 1024).
	// Rings are drained every executed cycle the collector is awake,
	// so the default absorbs even saturated components with margin.
	RingCap int `json:"ring_cap,omitempty"`
	// Sched additionally records kernel scheduling events (park, wake,
	// fast-forward). These describe the kernel rather than the
	// emulated platform and legitimately differ between kernel and
	// gating choices, so they are off by default and excluded from
	// golden traces.
	Sched bool `json:"sched,omitempty"`
}

func (c *Config) applyDefaults() {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.RingCap == 0 {
		c.RingCap = 1024
	}
}

// WindowTally is one metrics window's event tallies.
type WindowTally struct {
	Inject uint64
	Eject  uint64
	Route  uint64
	Drop   uint64
	Stall  uint64
}

// boundary is one window-boundary state sample. Only debt-free live
// values are sampled — a parked link's busy counter is frozen and a
// parked FIFO is empty — so samples are bit-identical with gating on
// or off even while skip accounting is outstanding.
type boundary struct {
	// Cycle is the boundary cycle (a multiple of the window size).
	Cycle uint64
	// Occ is the summed occupancy of the registered FIFOs.
	Occ uint64
	// Busy is the summed cumulative busy-cycle count of the registered
	// links; window utilization is the delta between boundaries.
	Busy uint64
}

// Collector owns every probe ring and turns drained events into the
// exported trace and the windowed metrics the regmap bank serves. It
// is an engine component, registered after every instrumented
// component:
//
//   - Tick drains all rings and, at window boundaries, samples the
//     occupancy/utilization closures. Under the parallel kernel the
//     collector is a SerialTicker, so the drain runs in the exclusive
//     coordinator window between the workers' arrival at the gate and
//     its release — the only point where no worker is writing any ring.
//   - It is Quiescable (quiet when every ring is empty, waking at the
//     next window boundary), which keeps schedule-wide fast-forward
//     alive with tracing enabled; emit-time arming wakes it the moment
//     any probe buffers an event.
type Collector struct {
	cfg   Config
	rings []*ring
	arm   func()

	// The retained log stores pointer-free records with component
	// names interned in comps — an all-scalar slice costs no GC scans
	// and no zeroing on growth, which matters when a long traced run
	// retains millions of events.
	events    []rec
	comps     []string          // comp name per index; [i] = ring i's name
	schedComp map[string]uint32 // interned scheduler comp names
	sorted    int               // prefix of events already canonically sorted
	total     uint64

	kindCount [numKinds]uint64
	vcStalls  []uint64
	wins      []WindowTally
	bound     []boundary
	occFns    []func(cycle uint64) int
	busyFns   []func(cycle uint64) uint64
	// clock reads the current cycle between runs: where the still-open
	// window's live busy count is read (SetClock).
	clock func() uint64
}

// NewCollector builds the tracing subsystem for one platform.
func NewCollector(cfg Config) *Collector {
	cfg.applyDefaults()
	return &Collector{cfg: cfg}
}

// NewProbe issues a probe (and its ring) for the named component. Ring
// ids follow issue order, which the platform makes deterministic by
// issuing probes in build order; the id is the canonical tie-breaker
// for same-cycle events. A nil collector returns a nil (disabled)
// probe, so wiring code never branches on whether tracing is on.
func (c *Collector) NewProbe(comp string) *Probe {
	if c == nil {
		return nil
	}
	r := &ring{id: uint32(len(c.rings)), comp: comp, buf: make([]rec, c.cfg.RingCap)}
	c.rings = append(c.rings, r)
	c.comps = append(c.comps, comp)
	return &Probe{c: c, r: r}
}

// SetArm installs the closure emit calls to wake the collector (the
// platform binds engine.Armer("probe")). Safe to leave unset.
func (c *Collector) SetArm(f func()) {
	if c != nil {
		c.arm = f
	}
}

// AddOccupancySampler registers a buffer occupancy closure, read as of
// the start of the given cycle and summed at every window boundary.
func (c *Collector) AddOccupancySampler(f func(cycle uint64) int) {
	if c != nil {
		c.occFns = append(c.occFns, f)
	}
}

// AddBusySampler registers a link cumulative-busy-cycles closure, read
// as of the given cycle; the per-window delta of the sum is the
// platform's link utilization.
func (c *Collector) AddBusySampler(f func(cycle uint64) uint64) {
	if c != nil {
		c.busyFns = append(c.busyFns, f)
	}
}

// SetClock installs the cycle reader WindowBusy reads the open window's
// live count at (the platform binds the engine's cycle). Unset, it
// reads cycle 0.
func (c *Collector) SetClock(f func() uint64) {
	if c != nil {
		c.clock = f
	}
}

// ComponentName implements engine.Component.
func (c *Collector) ComponentName() string { return "probe" }

// Tick implements engine.Component: drain every ring, and sample the
// boundary closures when the cycle sits on a window edge.
func (c *Collector) Tick(cycle uint64) {
	c.drain()
	if cycle%c.cfg.Window == 0 {
		c.sampleBoundary(cycle)
	}
}

// Commit implements engine.Component; the kernel never calls it.
func (c *Collector) Commit(uint64) {}

// TickSerially implements engine.SerialTicker: the drain reads rings
// owned by components in other shards.
func (c *Collector) TickSerially() {}

// NextWake implements engine.Quiescable: quiet while every ring is
// empty, waking at the next window boundary for the sample. Emit-time
// arming covers input-driven wakes.
func (c *Collector) NextWake(cycle uint64) (uint64, bool) {
	for _, r := range c.rings {
		if r.n != 0 {
			return 0, false
		}
	}
	return (cycle/c.cfg.Window + 1) * c.cfg.Window, true
}

// SkipIdle implements engine.Quiescable: an idle collector owes
// nothing per cycle.
func (c *Collector) SkipIdle(from, n uint64) {}

// drain moves every ring's events into the event log and the metrics
// counters. Ring visit order varies with nothing: rings are visited in
// id order, and per-ring event order is emission order.
func (c *Collector) drain() {
	for _, r := range c.rings {
		if r.n == 0 {
			continue
		}
		start := len(c.events)
		c.events = r.drainInto(c.events)
		for i := start; i < len(c.events); i++ {
			c.account(&c.events[i])
		}
	}
}

// account folds one event into the cumulative and windowed counters.
func (c *Collector) account(ev *rec) {
	c.total++
	c.kindCount[ev.Kind]++
	k := int(ev.Cycle / c.cfg.Window)
	for len(c.wins) <= k {
		c.wins = append(c.wins, WindowTally{})
	}
	w := &c.wins[k]
	switch ev.Kind {
	case KindInject:
		w.Inject++
	case KindEject:
		w.Eject++
	case KindRoute:
		w.Route++
	case KindDrop:
		w.Drop++
	case KindStall:
		w.Stall++
		for int(ev.VC) >= len(c.vcStalls) {
			c.vcStalls = append(c.vcStalls, 0)
		}
		c.vcStalls[ev.VC]++
	}
}

// sampleBoundary records the window-edge state sample and keeps the
// window-counter slice covering every elapsed window.
func (c *Collector) sampleBoundary(cycle uint64) {
	k := int(cycle / c.cfg.Window)
	for len(c.bound) <= k {
		c.bound = append(c.bound, boundary{
			Cycle: uint64(len(c.bound)) * c.cfg.Window,
			Occ:   c.liveOcc(cycle),
			Busy:  c.liveBusy(cycle),
		})
	}
	for len(c.wins) < len(c.bound) {
		c.wins = append(c.wins, WindowTally{})
	}
}

func (c *Collector) liveOcc(cycle uint64) uint64 {
	var occ uint64
	for _, f := range c.occFns {
		occ += uint64(f(cycle))
	}
	return occ
}

func (c *Collector) liveBusy(cycle uint64) uint64 {
	var busy uint64
	for _, f := range c.busyFns {
		busy += f(cycle)
	}
	return busy
}

// sched appends a kernel scheduling event directly (the emitting
// kernel contexts are serialized with the drain by construction:
// sequential park/wake run on the engine goroutine, parallel
// fast-forward in the coordinator's quiesced window).
func (c *Collector) sched(ev Event) {
	if c == nil || !c.cfg.Sched {
		return
	}
	c.total++
	c.kindCount[ev.Kind]++
	c.events = append(c.events, recOf(ev, SchedRing, c.internComp(ev.Comp)))
}

// internComp returns the name-table index for a scheduler event's
// component name, adding it on first sight. Scheduler events are rare
// (parks, wakes, fast-forwards), so the map lookup is off the hot
// data-path emit.
func (c *Collector) internComp(comp string) uint32 {
	if i, ok := c.schedComp[comp]; ok {
		return i
	}
	if c.schedComp == nil {
		c.schedComp = make(map[string]uint32)
	}
	i := uint32(len(c.comps))
	c.comps = append(c.comps, comp)
	c.schedComp[comp] = i
	return i
}

// eventOf rehydrates a stored record into the schema form.
func (c *Collector) eventOf(r *rec) Event {
	return Event{
		Cycle: r.Cycle, Kind: r.Kind, Comp: c.comps[r.Comp], Ring: r.Ring,
		Pkt: r.Pkt, Src: r.Src, Dst: r.Dst, Idx: r.Idx,
		VC: r.VC, Port: r.Port, Val: r.Val,
	}
}

// SchedPark implements engine.SchedTrace.
func (c *Collector) SchedPark(cycle uint64, comp string) {
	c.sched(Event{Cycle: cycle, Kind: KindPark, Comp: comp})
}

// SchedWake implements engine.SchedTrace.
func (c *Collector) SchedWake(cycle uint64, comp string) {
	c.sched(Event{Cycle: cycle, Kind: KindWake, Comp: comp})
}

// SchedFastForward implements engine.SchedTrace.
func (c *Collector) SchedFastForward(from, to uint64) {
	c.sched(Event{Cycle: from, Kind: KindFF, Comp: "kernel", Val: to})
}

// finalize drains any still-buffered events (those emitted behind the
// last cycle's Tick) and canonically orders the log:
// a stable sort by (cycle, ring id). Stability preserves each ring's
// emission order, and because the drained multiset and the ring ids
// are pure functions of the emulation results and the build order, the
// final order — and therefore the exported bytes — is identical for
// every kernel and gating choice.
func (c *Collector) finalize() {
	c.drain()
	if c.sorted == len(c.events) {
		return
	}
	sort.SliceStable(c.events, func(i, j int) bool {
		a, b := &c.events[i], &c.events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Ring < b.Ring
	})
	c.sorted = len(c.events)
}

// Events returns the canonically ordered event log. The slice is
// materialized from the compact internal log on every call; callers
// iterating a large trace should prefer WriteJSONL, which streams.
func (c *Collector) Events() []Event {
	c.finalize()
	out := make([]Event, len(c.events))
	for i := range c.events {
		out[i] = c.eventOf(&c.events[i])
	}
	return out
}

// WriteJSONL exports the canonically ordered trace as one JSON object
// per line, streaming without materializing the schema-form slice.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.finalize()
	for i := range c.events {
		line, err := c.eventOf(&c.events[i]).MarshalJSONL()
		if err != nil {
			return fmt.Errorf("probe: encode event %d: %w", i, err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// --- accessors backing the regmap bank ---

// WindowSize returns the metrics window in cycles.
func (c *Collector) WindowSize() uint64 { return c.cfg.Window }

// NumRings returns the number of issued probes.
func (c *Collector) NumRings() int { return len(c.rings) }

// Total returns the number of events collected so far.
func (c *Collector) Total() uint64 { return c.total }

// Dropped returns the number of events lost to ring overflow.
func (c *Collector) Dropped() uint64 {
	var d uint64
	for _, r := range c.rings {
		d += r.dropped
	}
	return d
}

// KindCount returns the cumulative count of one event kind.
func (c *Collector) KindCount(k Kind) uint64 {
	if int(k) >= numKinds {
		return 0
	}
	return c.kindCount[k]
}

// NumVCs returns the number of virtual channels with recorded stalls.
func (c *Collector) NumVCs() int { return len(c.vcStalls) }

// VCStalls returns the cumulative credit-stall count of one VC.
func (c *Collector) VCStalls(vc int) uint64 {
	if vc < 0 || vc >= len(c.vcStalls) {
		return 0
	}
	return c.vcStalls[vc]
}

// WindowCount returns the number of metrics windows recorded so far.
func (c *Collector) WindowCount() int {
	if len(c.wins) > len(c.bound) {
		return len(c.wins)
	}
	return len(c.bound)
}

// WindowCounts returns one window's event tallies.
func (c *Collector) WindowCounts(k int) (WindowTally, bool) {
	if k < 0 || k >= len(c.wins) {
		return WindowTally{}, false
	}
	return c.wins[k], true
}

// WindowOcc returns the summed FIFO occupancy sampled at the start of
// window k.
func (c *Collector) WindowOcc(k int) uint64 {
	if k < 0 || k >= len(c.bound) {
		return 0
	}
	return c.bound[k].Occ
}

// WindowBusy returns the summed link busy-cycles accumulated during
// window k (live-valued for the still-open last window).
func (c *Collector) WindowBusy(k int) uint64 {
	if k < 0 || k >= len(c.bound) {
		return 0
	}
	if k+1 < len(c.bound) {
		return c.bound[k+1].Busy - c.bound[k].Busy
	}
	var now uint64
	if c.clock != nil {
		now = c.clock()
	}
	return c.liveBusy(now) - c.bound[k].Busy
}

// ResetStats clears the event log, the metrics store, and every ring,
// mirroring the CTRL reset-stats convention of the other banks.
func (c *Collector) ResetStats() {
	for _, r := range c.rings {
		r.n = 0
		r.dropped = 0
	}
	c.events = c.events[:0]
	c.sorted = 0
	c.total = 0
	c.kindCount = [numKinds]uint64{}
	c.vcStalls = c.vcStalls[:0]
	c.wins = c.wins[:0]
	c.bound = c.bound[:0]
}
