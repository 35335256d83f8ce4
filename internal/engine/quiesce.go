// Quiescence-aware scheduling — the software analogue of clock gating.
//
// Most cycles of a realistic emulation run are idle: generators sleep
// through inter-packet gaps, switches sit with empty buffers, links
// carry nothing. The FPGA pays nothing for an idle device; the naive
// kernel still walks it every cycle. A component that can prove it
// will do nothing for a while implements Quiescable; the
// kernel then parks it — removes it from the per-cycle walk — until
// either its declared wake cycle arrives (wake heap) or input reaches it
// (arm hooks, installed by the platform on the wires: a Send wakes the
// flit's reader for the next cycle, the first it can take it in). When every
// component is parked the kernel fast-forwards the global cycle counter
// straight to the earliest wake.
//
// Two rules make the skipping invisible:
//
//   - The quiet contract. A component may report quiet only if, absent
//     new input, every skipped Tick would have been a no-op apart
//     from derivable per-cycle counters (link utilization
//     denominators, buffer occupancy integrals), consumed no
//     randomness, and left its Stopper/Aborter answers unchanged
//     before the returned wake cycle. A cycle-driven Stopper or
//     Aborter must therefore bound its own flip with its wake, which
//     is what keeps fast-forward and pollStop exact.
//
//   - Skip accounting. While parked, a component's per-cycle counters
//     are owed the skipped cycles. The kernel records the cycle a
//     component was parked from and pays the debt with one SkipIdle
//     call on wake, and settles every parked component at the end of
//     each run entry point, so external observers (monitor, register
//     reads, stats resets) always see the same numbers the naive
//     schedule would have produced.
//
// Who is active and who is owed what is one type, clockGate, below: a
// flag and a watermark per registry slot and per element of every
// registered arena, and active lists over them. The gated walk is a
// crew's (duty.go, pool.go), of one worker or more: every worker keeps
// the active lists, the quiet report, the timers and the park
// watermarks of the registry slots and arena elements it owns
// (crewGates), over the gates' shared arrays, and walks only those; an
// arena's slot itself is never listed, only its elements. The gate
// never asks an element whether it is quiet: the population's quiet
// report, run after the cycle's Ticks, names the ones that went quiet.
// An arena answers it from the state its elements' Ticks just left, and
// an arena element only ever wakes on input. The registry has to ask
// each component through an interface, so it rations the looks with a
// backoff, and it keeps the timers.
//
// A wire's Send queues its reader's wake on the list of the worker that
// writes the wire, and after the barrier each worker applies the wakes
// addressed to what it owns. The coordinator keeps the SerialTickers,
// their timers and what arms them: an arm within the cycle (Armer,
// ArmTable.Also) reaches SerialTickers only, which the coordinator
// ticks after every worker's share, in the same cycle. On a network
// busy enough that parking costs more than it saves, the gates stand
// down for the plain walk, on the same crew (duty.go).
package engine

import (
	"slices"
	"sync/atomic"
)

// NeverWake is the wake cycle of a component that only input can
// reactivate.
const NeverWake = ^uint64(0)

// Quiescable is implemented by components that can declare idleness.
// See the package comment above for the quiet contract; a component
// that cannot honour it simply does not implement the interface and is
// walked every cycle.
type Quiescable interface {
	// NextWake reports whether the component is quiet as of the end of
	// the given (just executed) cycle and, if so, the first future
	// cycle at which it may act again absent new input (NeverWake if
	// only input reactivates it).
	NextWake(cycle uint64) (wake uint64, quiet bool)
	// SkipIdle accounts n skipped cycles [from, from+n) during which
	// the component was parked: per-cycle counters and internal
	// countdowns advance exactly as n no-op Ticks would have advanced
	// them.
	SkipIdle(from, n uint64)
}

// wakeEntry is a heap record: component idx sleeps until wake. An entry
// goes stale when the component wakes on input first (sched.valid);
// stale entries are discarded lazily on pop.
type wakeEntry struct {
	wake uint64
	idx  int
}

type wakeHeap []wakeEntry

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].wake <= a[i].wake {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *wakeHeap) pop() wakeEntry {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && a[l].wake < a[m].wake {
			m = l
		}
		if r < n && a[r].wake < a[m].wake {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// population is the view a gate has of what it schedules: n elements
// addressed by index, evaluated in batches, each able to absorb skipped
// cycles. QuietList reports, as positions in idx, the elements that
// stay quiet from the next cycle on until input arms them or a timer
// their population keeps wakes them (Arena has the contract). A
// worker's share of the registry (crewGates, below) and every Arena
// implement it.
type population interface {
	TickList(idx []int, cycle uint64)
	QuietList(idx []int, cycle uint64, quiet []int) []int
	ElemSkipIdle(i int, from, n uint64)
}

// clockGate schedules one population: a flag per element saying whether
// it is active, the cycle from which each parked element is owed idle
// cycles, and an active list — the per-cycle walk — that parks the ones
// its population reports quiet and grows by the ones input wakes.
// Gates over the same population share the flags and watermarks, each
// listing the elements it owns.
type clockGate struct {
	pop    population
	active []bool
	act    []int    // the active elements this gate owns; the per-cycle walk
	park   []uint64 // first cycle a parked element has not executed
	quiet  []int    // scratch of report: positions in act reported quiet
	// log, when set, is told of every park (true) and wake (false). The
	// registry's gates report them to the engine's SchedTrace; arena
	// gates stay silent, as element scheduling always has.
	log func(park bool, cycle uint64, i int)
}

// arm re-activates element i at the given cycle if it is parked.
// Already active elements, and slots this gate does not cover yet, are
// left alone — the common case on a Send hook, so this stays small
// enough to inline.
func (g *clockGate) arm(i int, cycle uint64) {
	if i < len(g.active) && !g.active[i] {
		g.wake(i, cycle)
	}
}

// wake puts parked element i back on the active list, paying its
// skip-accounting debt.
func (g *clockGate) wake(i int, cycle uint64) {
	g.active[i] = true
	if g.park[i] < cycle {
		g.pop.ElemSkipIdle(i, g.park[i], cycle-g.park[i])
	}
	g.act = append(g.act, i)
	if g.log != nil {
		g.log(false, cycle, i)
	}
}

// Tick ticks the active list.
func (g *clockGate) Tick(cycle uint64) {
	if len(g.act) > 0 {
		g.pop.TickList(g.act, cycle)
	}
}

// report parks the active elements the population reports quiet after
// the cycle's Ticks — an idle element leaves the walk in the cycle it
// goes idle, a busy one costs nothing here — and closes the list up
// from the first of them.
func (g *clockGate) report(cycle uint64) {
	if len(g.act) == 0 {
		return
	}
	g.quiet = g.pop.QuietList(g.act, cycle, g.quiet[:0])
	if len(g.quiet) == 0 {
		return
	}
	w, q := g.quiet[0], 0
	for r := w; r < len(g.act); r++ {
		i := g.act[r]
		if q < len(g.quiet) && g.quiet[q] == r {
			q++
			g.active[i] = false
			g.park[i] = cycle + 1
			if g.log != nil {
				g.log(true, cycle, i)
			}
			continue
		}
		g.act[w] = i
		w++
	}
	g.act = g.act[:w]
}

// settle pays the outstanding skip accounting of every parked element
// up to the given cycle. Elements stay parked; their watermark
// advances.
func (g *clockGate) settle(cycle uint64) {
	for i, on := range g.active {
		if !on && g.park[i] < cycle {
			g.pop.ElemSkipIdle(i, g.park[i], cycle-g.park[i])
			g.park[i] = cycle
		}
	}
}

// restart makes every element active with its watermark at the given
// cycle: after a LoadState moved the timeline and replaced element
// state under it, or for a stand-down. The caller settles first, so no
// debt is outstanding, and re-derives the lists (pool.relist); the next
// gated cycle's quiet report re-derives the parked set from the
// elements' own state.
func (g *clockGate) restart(cycle uint64) {
	for i := range g.active {
		g.active[i] = true
		g.park[i] = cycle
	}
}

// Target addresses something the gate can park: the registered
// component Name or, when Name is a registered arena, element Elem of
// it (Elem is ignored for plain components).
type Target struct {
	Name string
	Elem int
}

// parkRetry is the registry's scan backoff: a component found busy is
// asked again every parkRetry-th cycle, not every cycle. Parking is
// transparent, so delaying it only trims the calls a busy registry pays.
const parkRetry = 8

// sched is the gating state of an Engine: the flags and watermarks of
// every gate, the registry's looks and timers, and the crew that holds
// the active lists.
type sched struct {
	// coord is the coordinator's share of the registry: its list is the
	// SerialTickers', its heap their timers. Its gate's flags and
	// watermarks are the whole registry's, which every worker's share
	// reads and writes for the slots it owns.
	coord crewGates
	// arenas holds every registered arena's flags and watermarks, by
	// position in Engine.arenas; the workers' shares list them.
	arenas []clockGate
	// quies is every registry slot as a Quiescable, nil where it cannot
	// park — an arena's slot among them. nextTry is the cycle from which
	// a component is next asked whether it is quiet (a wake finds it
	// due); wakeAt the timer its latest park set.
	quies   []Quiescable
	nextTry []uint64
	wakeAt  []uint64
	// duty decides when the gates stand down for the plain walk (duty.go).
	duty duty
	// pool is the crew whose workers hold the active lists: the last
	// run's, kept between runs. pools keeps every crew built, by size,
	// so that a size that comes back builds nothing (duty.go, hire).
	// phaseA says the workers are ticking: an arm then waits for the
	// coordinator.
	pool   *pool
	pools  map[int]*pool
	phaseA bool
}

// valid reports whether a timer still stands: its component is parked,
// by the park that set it (or one that set the same cycle).
func (s *sched) valid(ent wakeEntry) bool {
	return !s.coord.reg.active[ent.idx] && s.wakeAt[ent.idx] == ent.wake
}

// regGate is the gate that lists registry slot i when it is active: its
// worker's, or the coordinator's for a SerialTicker.
func (s *sched) regGate(i int) *clockGate {
	if o := s.pool.owner[i]; o >= 0 {
		return &s.pool.gates[o].reg
	}
	return &s.coord.reg
}

// nextWake reports whether the whole registry is parked and, if so,
// until which cycle: its earliest standing timer, the workers' included.
// A wake still queued — a Send between runs, which the next report
// applies — keeps the cycle walked.
func (s *sched) nextWake() (uint64, bool) {
	p := s.pool
	if len(s.coord.reg.act) > 0 || p.busy() || s.coord.e.queued() {
		return 0, false
	}
	wake := s.coord.earliest()
	for w := range p.gates {
		wake = min(wake, p.gates[w].earliest())
	}
	return wake, true
}

// ref is a resolved Target: its registry slot and, for an arena element,
// the arena's position in Engine.arenas (-1: a plain component) and the
// element. Narrow fields: an arm table holds one per wire.
type ref struct{ arena, elem, slot int32 }

// logSched forwards the registry gates' transitions to the SchedTrace.
func (e *Engine) logSched(park bool, cycle uint64, i int) {
	if e.strace == nil {
		return
	}
	name := e.components[i].ComponentName()
	if park {
		e.strace.SchedPark(cycle, name)
	} else {
		e.strace.SchedWake(cycle, name)
	}
}

func (e *Engine) resolve(t Target) (ref, bool) {
	slot, ok := e.names[t.Name]
	if !ok {
		return ref{}, false
	}
	k := e.arenaOf(e.components[slot])
	if k >= 0 && (t.Elem < 0 || t.Elem >= e.arenas[k].Len()) {
		return ref{}, false
	}
	return ref{arena: int32(k), elem: int32(t.Elem), slot: int32(slot)}, true
}

// resolveSerial resolves the name of a SerialTicker: what an arm within
// the cycle may reach.
func (e *Engine) resolveSerial(name string) (int32, bool) {
	r, ok := e.resolve(Target{Name: name})
	if !ok || r.arena >= 0 {
		return 0, false
	}
	_, ok = e.components[r.slot].(SerialTicker)
	return r.slot, ok
}

// Armer returns one closure that re-activates every target — the
// scheduler half of the arm-on-input rule for a single hook (the probe
// collector's emit-time arm; the wires of an arena share an ArmTable).
// Every target must be a SerialTicker, or Armer reports false: a target
// armed within a cycle is armed after the workers' share of it and
// ticked in the serial phase, in the same cycle. The closure costs a
// flag test per target when everything is active and is safe to call
// when gating is off.
func (e *Engine) Armer(targets ...Target) (func(), bool) {
	slots := make([]int32, len(targets))
	for n, t := range targets {
		slot, ok := e.resolveSerial(t.Name)
		if !ok {
			return nil, false
		}
		slots[n] = slot
	}
	return e.armer(slots...).arm, true
}

// armer returns the armer of the given SerialTicker slots, made on
// first use: one late flag per target list for crewWalk to look at.
func (e *Engine) armer(slots ...int32) *armer {
	for _, a := range e.armers {
		if slices.Equal(a.slots, slots) {
			return a
		}
	}
	a := &armer{e: e, slots: slots}
	e.armers = append(e.armers, a)
	return a
}

// armer is an Armer's closure: its targets, and whether a worker's Tick
// asked for them while the coordinator could not arm (late).
type armer struct {
	e     *Engine
	slots []int32
	late  atomic.Bool
}

func (a *armer) arm() {
	s := a.e.sched
	if s == nil {
		return
	}
	g := &s.coord.reg
	for _, i := range a.slots {
		if int(i) < len(g.active) && !g.active[i] {
			if s.phaseA { // the coordinator arms them after the barrier (crewWalk)
				a.late.Store(true)
				return
			}
			g.wake(int(i), a.e.cycle)
		}
	}
}

// ArmTable is the arm-on-input rule of a whole wire population as data:
// a row per wire instead of closures per wire. A wire that puts a flit
// on view for the next cycle calls its hook with its index; the table
// queues the wake of its reader on the list of the worker that writes
// the wire, and that worker's report phase applies it for its reader's
// owner (deliver), so the reader first runs in the cycle it can take
// the flit. A Send between runs is applied in the next run's first
// report. Credits wake nobody: SkipIdle collects them.
type ArmTable struct {
	e    *Engine
	rows []ref    // per wire: who reads it
	from []ref    // per wire: who writes it
	also []*armer // per wire: the SerialTicker to arm too, nil for none
	// hook is what the wires call (Hook): queue, bound once, or nil
	// before the first run and while the gates stand down and a Send
	// would find all awake.
	hook, queued func(i int)
	// On a crew of n (route): lists is, per wire, the list a Send queues
	// its reader on — sent[src*n+dst], src and dst the workers of the
	// wire's writer and reader. Every list has one writer.
	n     int
	lists []int32
	sent  []wireList
	// routed is the crew and deal the lists are for.
	routed *pool
	deal   int
}

// wireList is one writer's queue of wires, padded so that no two
// queues' headers share a cache line; need is the wires it may hold in
// a cycle, its capacity from the first route on.
type wireList struct {
	w    []int32
	need int
	_    [96]byte
}

// ArmTable builds the table for a wire population: writers[i] writes
// wire i, readers[i] reads it.
func (e *Engine) ArmTable(writers, readers []Target) (*ArmTable, error) {
	if len(writers) != len(readers) {
		return nil, errArena("arm table: writers and readers differ in number")
	}
	t := &ArmTable{
		e: e, rows: make([]ref, len(readers)), from: make([]ref, len(writers)), also: make([]*armer, len(readers)),
		lists: make([]int32, len(readers)),
	}
	t.queued = t.queue
	for i := range readers {
		var ok bool
		if t.rows[i], ok = e.resolve(readers[i]); !ok {
			return nil, errArena("arm table: unknown reader " + readers[i].Name)
		}
		if t.from[i], ok = e.resolve(writers[i]); !ok {
			return nil, errArena("arm table: unknown writer " + writers[i].Name)
		}
	}
	e.tables = append(e.tables, t)
	return t, nil
}

// Hook returns the variable the wires call through; the engine sets it
// while its gates are up, and to nil while they stand down.
func (t *ArmTable) Hook() *func(i int) { return &t.hook }

// Also makes a flit sent on wire i arm the named SerialTicker too, in
// the same cycle (the watchdog, on injection wires). Anything but a
// SerialTicker is refused.
func (t *ArmTable) Also(i int, name string) error {
	slot, ok := t.e.resolveSerial(name)
	if !ok || i < 0 || i >= len(t.also) {
		return errArena("arm table: cannot also arm " + name)
	}
	t.also[i] = t.e.armer(slot)
	return nil
}

// queue is the wires' hook: wire i put a flit on view for the next
// cycle. Its reader is queued on the writer's list for its owner, which
// wakes it after the barrier if it is parked (deliver) — no worker
// reads another's flags. What Also added is armed as an Armer arms.
func (t *ArmTable) queue(i int) {
	if a := t.also[i]; a != nil {
		a.arm()
	}
	q := &t.sent[t.lists[i]].w
	*q = append(*q, int32(i))
}

// route maps the table onto crew p, unless it is mapped onto its last
// deal already: the list of each wire's writer and reader, and an empty
// list for every pair of workers, with room for every wire it may
// carry in a cycle. What was sent between runs moves to the new lists.
func (t *ArmTable) route(p *pool) {
	if t.routed == p && t.deal == p.deals {
		return
	}
	var carried []int32
	for v := range t.sent {
		carried = append(carried, t.sent[v].w...)
	}
	t.routed, t.deal, t.n = p, p.deals, len(p.shards)
	if cap(t.sent) < t.n*t.n {
		t.sent = make([]wireList, t.n*t.n)
	}
	t.sent = t.sent[:t.n*t.n]
	for v := range t.sent {
		t.sent[v].w, t.sent[v].need = t.sent[v].w[:0], 0
	}
	for i := range t.rows {
		t.lists[i] = p.workerOf(t.e, t.from[i])*int32(t.n) + p.workerOf(t.e, t.rows[i])
		t.sent[t.lists[i]].need++
	}
	for v := range t.sent {
		if q := &t.sent[v]; cap(q.w) < q.need {
			q.w = make([]int32, 0, q.need)
		}
	}
	for _, i := range carried {
		q := &t.sent[t.lists[i]].w
		*q = append(*q, i)
	}
}

// queued reports whether any arm table holds a wake for the next report.
func (e *Engine) queued() bool {
	for _, t := range e.tables {
		for v := range t.sent {
			if len(t.sent[v].w) > 0 {
				return true
			}
		}
	}
	return false
}

// deliver wakes, for the next cycle, the parked readers owned by worker
// w that every writer queued this cycle.
func (t *ArmTable) deliver(g *crewGates, w int, next uint64) {
	for v := 0; v < t.n; v++ {
		q := &t.sent[v*t.n+w].w
		for _, i := range *q {
			if r := t.rows[i]; r.arena >= 0 {
				g.arenas[r.arena].arm(int(r.elem), next)
			} else {
				g.s.regGate(int(r.slot)).arm(int(r.slot), next)
			}
		}
		*q = (*q)[:0]
	}
}

// crewGates is one worker's share of a gated engine's gates on a crew —
// or the coordinator's (sched.coord): active lists over the gates' own
// flags and watermarks for the registry slots (reg) and the arena
// elements (arenas, by position in Engine.arenas) it owns, its quiet
// report over them, and the heap of the timers that report sets. Every
// flag and watermark has one owner, so the workers share the gates'
// arrays without atomics. As reg's population it is the registry with
// its own heap.
type crewGates struct {
	e      *Engine
	s      *sched
	reg    clockGate
	arenas []clockGate
	heap   wakeHeap
	_      [64]byte
}

func (g *crewGates) TickList(idx []int, cycle uint64) {
	for _, i := range idx {
		g.e.components[i].Tick(cycle)
	}
}

// QuietList asks each listed component that is due a look whether it
// is quiet beyond the next cycle — after every Tick of the cycle, so
// the answers see the whole cycle — and pushes the timers of the parks
// it reports on the heap.
func (g *crewGates) QuietList(idx []int, cycle uint64, quiet []int) []int {
	s := g.s
	for r, i := range idx {
		q := s.quies[i]
		if q == nil || cycle < s.nextTry[i] {
			continue
		}
		if wake, ok := q.NextWake(cycle); !ok {
			s.nextTry[i] = cycle + parkRetry
		} else if wake > cycle+1 {
			quiet = append(quiet, r)
			s.wakeAt[i] = wake
			if wake != NeverWake {
				g.heap.push(wakeEntry{wake: wake, idx: i})
			}
		}
	}
	return quiet
}

func (g *crewGates) ElemSkipIdle(i int, from, n uint64) {
	if q := g.s.quies[i]; q != nil {
		q.SkipIdle(from, n)
	}
}

// wakeDue wakes every parked component whose timer has run out.
func (g *crewGates) wakeDue(cycle uint64) {
	for len(g.heap) > 0 && g.heap[0].wake <= cycle {
		if ent := g.heap.pop(); g.s.valid(ent) {
			g.reg.wake(ent.idx, cycle)
		}
	}
}

// earliest is the earliest standing timer, NeverWake for none.
func (g *crewGates) earliest() uint64 {
	for len(g.heap) > 0 {
		if top := g.heap[0]; g.s.valid(top) {
			return top.wake
		}
		g.heap.pop()
	}
	return NeverWake
}

// tick is the worker's first phase of a gated cycle: its active lists,
// its timers already woken (crewWalk).
func (g *crewGates) tick(cycle uint64) {
	g.reg.Tick(cycle)
	for k := range g.arenas {
		g.arenas[k].Tick(cycle)
	}
}

// report is the second, once every worker has ticked: the worker parks
// what went quiet and wakes what was sent input, and what its timers
// have due in the next cycle — while no worker ticks, so their SkipIdle
// may take from their wires.
func (g *crewGates) report(w int, cycle uint64) {
	for k := range g.arenas {
		g.arenas[k].report(cycle)
	}
	g.reg.report(cycle)
	for _, t := range g.e.tables {
		t.deliver(g, w, cycle+1)
	}
	g.wakeDue(cycle + 1)
}

// busy reports whether any worker has something active.
func (p *pool) busy() bool {
	for w := range p.gates {
		g := &p.gates[w]
		if len(g.reg.act) > 0 {
			return true
		}
		for k := range g.arenas {
			if len(g.arenas[k].act) > 0 {
				return true
			}
		}
	}
	return false
}

// shareGates builds every worker's share of the gates of s, over their
// arrays, with room for all it owns: a deal (pool.deal) fixes who owns
// what.
func (p *pool) shareGates(e *Engine) {
	s, n := e.sched, len(p.shards)
	owned := make([]int, n)
	for _, o := range p.owner {
		if o >= 0 {
			owned[o]++
		}
	}
	p.gates = make([]crewGates, n)
	for w := range p.gates {
		g := &p.gates[w]
		g.e, g.s, g.heap = e, s, make(wakeHeap, 0, owned[w])
		g.reg = clockGate{pop: g, active: s.coord.reg.active, park: s.coord.reg.park, log: e.logSched,
			act: make([]int, 0, owned[w]), quiet: make([]int, 0, owned[w])}
		g.arenas = make([]clockGate, len(s.arenas))
		for k, a := range s.arenas {
			span := len(a.active)/n + 1
			g.arenas[k] = clockGate{pop: a.pop, active: a.active, park: a.park,
				act: make([]int, 0, span), quiet: make([]int, 0, span)}
		}
	}
	if c := &s.coord; cap(c.reg.act) < len(p.serial) {
		c.reg.act, c.reg.quiet = make([]int, 0, len(p.serial)), make([]int, 0, len(p.serial))
		c.heap = make(wakeHeap, 0, len(p.serial))
	}
}

// relist re-derives the active lists from the gates' flags for this
// crew — every active registry slot on its owner's list, the
// coordinator's for a SerialTicker, every active arena element on its
// span's — and drops the timers, which only a park sets. It runs where
// the lists change hands or the flags change under them: a run on
// another crew or a new deal (hire), a stand-down and a restore.
// Slots registered after the deal wait for the next.
func (p *pool) relist(s *sched) {
	c := &s.coord
	c.reg.act, c.heap = c.reg.act[:0], c.heap[:0]
	for w := range p.gates {
		g := &p.gates[w]
		g.reg.act, g.heap = g.reg.act[:0], g.heap[:0]
		for k := range g.arenas {
			g.arenas[k].act = g.arenas[k].act[:0]
		}
	}
	for i, o := range p.owner {
		switch {
		case !c.reg.active[i] || o == arenaSlot:
		case o == coordinator:
			c.reg.act = append(c.reg.act, i)
		default:
			g := &p.gates[o].reg
			g.act = append(g.act, i)
		}
	}
	for k := range s.arenas {
		for i, on := range s.arenas[k].active {
			if on {
				g := &p.gates[dealtTo(i, len(s.arenas[k].active), len(p.gates))].arenas[k]
				g.act = append(g.act, i)
			}
		}
	}
}

// crewWalk executes a gated cycle on the crew: the workers tick what
// they have active; the coordinator arms what the workers' Ticks asked
// it to and ticks the SerialTickers; the workers report their quiet and
// apply their wakes; the coordinator reports the SerialTickers'. Every
// worker keeps the timers of what it owns, the coordinator those of the
// SerialTickers. Every timer due is woken before any worker ticks: a
// wake pays the parked its SkipIdle, which takes from wires whose other
// end may tick on another worker. A worker wakes what its timers have
// due next in its report; the coordinator wakes the rest — due in the
// first cycle of a run or after a skip — here. On a crew of one the
// phases meet at no gate: the caller's goroutine walks them in turn.
func (e *Engine) crewWalk(s *sched) {
	p, c := s.pool, e.cycle
	s.coord.wakeDue(c)
	for w := range p.gates {
		p.gates[w].wakeDue(c)
	}
	p.next = c
	s.phaseA = true
	p.release(cmdGated)
	p.gates[0].tick(c)
	p.join()
	s.phaseA = false
	for _, a := range e.armers {
		if a.late.Load() {
			a.late.Store(false)
			a.arm()
		}
	}
	if !slices.IsSorted(s.coord.reg.act) { // the SerialTickers tick in registration order
		slices.Sort(s.coord.reg.act)
	}
	s.coord.reg.Tick(c)
	p.release(cmdReport)
	p.gates[0].report(0, c)
	p.join()
	s.coord.reg.report(c)
	for w := range p.gates {
		for k := range p.gates[w].arenas {
			s.duty.busy += len(p.gates[w].arenas[k].act)
		}
	}
}

// schedEnter opens a run: every parked component is re-activated, the
// gates grow by what registered since the last run, and a run that
// walks hires its crew (duty.go). State may have changed between runs
// (control-plane enables, new fault schedules, stats resets) in ways a
// parked component's recorded wake cannot see, so everything gets one
// honestly evaluated cycle and re-parks itself via the normal scan.
// Arena elements are not re-activated: between runs only input changes
// them, and input arrives through arm hooks. The wakes go onto the last
// run's lists before the flags grow, while its crew's shares of them
// are the registry's own arrays; the hire re-deals them after.
func (e *Engine) schedEnter(walks bool) {
	s := e.sched
	if p := s.pool; p != nil { // else nothing has walked, and nothing is parked
		for i, on := range s.coord.reg.active {
			if !on {
				s.regGate(i).wake(i, e.cycle)
			}
		}
		s.coord.heap = s.coord.heap[:0]
		for w := range p.gates {
			p.gates[w].heap = p.gates[w].heap[:0]
		}
	}
	for n := len(s.quies); n < len(e.components); n++ {
		q, _ := e.components[n].(Quiescable)
		if k := e.arenaOf(e.components[n]); k >= 0 {
			a := e.arenas[k]
			g := clockGate{pop: a, active: make([]bool, a.Len()), park: make([]uint64, a.Len())}
			g.restart(e.cycle)
			s.arenas = append(s.arenas, g)
			s.duty.size += a.Len()
			q = nil
		}
		s.quies = append(s.quies, q)
		s.nextTry = append(s.nextTry, 0)
		s.wakeAt = append(s.wakeAt, NeverWake)
		s.coord.reg.active = append(s.coord.reg.active, true)
		s.coord.reg.park = append(s.coord.reg.park, e.cycle)
	}
	if walks {
		e.hire()
	}
}

// settle pays the outstanding skip accounting of every parked component
// and arena element up to the current cycle, so any observer that runs
// between kernel calls sees exactly the counters a naive schedule would
// have produced.
func (e *Engine) settle() {
	s := e.sched
	s.coord.reg.settle(e.cycle)
	for k := range s.arenas {
		s.arenas[k].settle(e.cycle)
	}
}

// restart settles every gate and makes everything active at the given
// cycle, on the crew's lists too.
func (s *sched) restart(e *Engine, cycle uint64) {
	e.settle()
	s.coord.reg.restart(cycle)
	for k := range s.arenas {
		s.arenas[k].restart(cycle)
	}
	if s.pool != nil {
		s.pool.relist(s)
	}
}

// rebase moves the cycle counter — LoadState's step. Outstanding skip
// accounting references the old timeline, so it is settled before the
// counter moves; then every gate restarts on the new timeline, up and
// probing afresh.
func (e *Engine) rebase(cycle uint64) {
	if s := e.sched; s != nil {
		e.standUp()
		s.duty.restart(cycle)
		clear(s.nextTry) // the backoff restarts on the new timeline too
		s.restart(e, cycle)
	}
	e.cycle = cycle
}
