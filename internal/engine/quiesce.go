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
// Who is active and who is owed what is one type, clockGate, below. A
// gated engine instantiates it once over the component
// registry and once over the elements of every registered arena; an
// arena's gate then stands in the arena's registry slot, so gating nests: the
// registry parks the slot when the arena's gate has nothing active. The
// gate never asks an element whether it is quiet: the population's
// quiet report, run after the cycle's Ticks, names the ones that went
// quiet. An arena answers it from the state its elements' Ticks just
// left, and an arena element only ever wakes on input. The registry
// (sched) has to ask each
// component through an interface, so it rations the looks with a
// backoff, and it keeps the timers. The arenas themselves only store and
// evaluate elements (arena.go).
//
// Where a run hires a crew (duty.go), the gates are dealt to it
// (crewGates): each worker keeps the active list, the quiet report, the
// timers and the park watermarks of the registry slots and arena
// elements it owns, over the gates' own arrays, and walks only those. A
// wire's Send queues its reader's wake on the list of the worker that
// writes the wire, and after the barrier each worker applies the wakes
// addressed to what it owns. The coordinator keeps the SerialTickers,
// their timers and what arms them. On a network busy enough that
// parking costs more than it saves, the gates stand down for the plain
// walk, on the same crew (duty.go).
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
// their population keeps wakes them (Arena has the contract). The
// registry (sched, below) and every Arena implement it.
type population interface {
	TickList(idx []int, cycle uint64)
	QuietList(idx []int, cycle uint64, quiet []int) []int
	ElemSkipIdle(i int, from, n uint64)
}

// clockGate schedules one population: it keeps the set of active elements,
// walks only those, parks the ones its population reports quiet, wakes
// them on input (arm), and remembers from which cycle each parked
// element is owed idle cycles. A gate itself ticks and is Quiescable —
// quiet when nothing in it is active — which is what lets an arena's
// gate sit in the registry gate's walk.
type clockGate struct {
	pop population
	// ordered makes the walk follow index order: the list is re-derived
	// from the flags after any wake. The registry needs it (a
	// SerialTicker must tick behind the components it observes, and the
	// producers of an arena's input ahead of the arena); arena elements
	// are order-free and skip the re-derivation.
	ordered bool
	dirty   bool // an element was appended to act out of index order

	active []bool
	act    []int    // the active elements; the per-cycle walk
	park   []uint64 // first cycle a parked element has not executed
	quiet  []int    // scratch of report: positions in act reported quiet; cap = population
	// log, when set, is told of every park (true) and wake (false). The
	// registry gate reports them to the engine's SchedTrace; arena gates
	// stay silent, as element scheduling always has.
	log func(park bool, cycle uint64, i int)
}

// add appends one active element slot.
func (g *clockGate) add(cycle uint64) {
	g.act = append(g.act, len(g.active))
	g.active = append(g.active, true)
	g.park = append(g.park, cycle)
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
// skip-accounting debt. Appending to act is what makes an element armed
// mid-walk still tick this cycle (Tick's growing bound).
func (g *clockGate) wake(i int, cycle uint64) {
	g.active[i] = true
	if g.park[i] < cycle {
		g.pop.ElemSkipIdle(i, g.park[i], cycle-g.park[i])
	}
	g.act = append(g.act, i)
	g.dirty = true
	if g.log != nil {
		g.log(false, cycle, i)
	}
}

// Tick ticks the active list. The bound grows: an
// element ticked here may stage input for a parked one, whose arm hook
// appends it to act, and the next batch picks it up in this same
// cycle. It was quiet, so its catch-up tick stages nothing and reads
// nothing another element staged this cycle.
func (g *clockGate) Tick(cycle uint64) {
	if g.ordered && g.dirty {
		g.relist()
	}
	for done := 0; done < len(g.act); {
		n := len(g.act)
		g.pop.TickList(g.act[done:n], cycle)
		done = n
	}
}

// report parks the active elements the population reports quiet after
// the cycle's Ticks — an idle element leaves the walk in the cycle it
// goes idle, a busy one costs nothing here — and closes the list up
// from the first of them.
func (g *clockGate) report(cycle uint64) {
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

// NextWake implements Quiescable: the gate is quiet when nothing in it
// is active, until input arms an element.
func (g *clockGate) NextWake(cycle uint64) (uint64, bool) {
	return NeverWake, len(g.act) == 0
}

// SkipIdle implements Quiescable: the per-element watermarks already
// carry the debt (paid on arm or settle), so the gate as a whole is
// owed nothing.
func (g *clockGate) SkipIdle(from, n uint64) {}

// relist re-derives the active list from the flags, in index order.
func (g *clockGate) relist() {
	g.act = g.act[:0]
	for i, on := range g.active {
		if on {
			g.act = append(g.act, i)
		}
	}
	g.dirty = false
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

// rebase restarts the gate at the given cycle after a LoadState moved
// the timeline and replaced element state under it: every element is
// active again with its watermark on the new timeline, and the next
// executed cycle's quiet report re-derives the parked set from the
// elements' own state. The caller settles first, so no debt is
// outstanding.
func (g *clockGate) rebase(cycle uint64) {
	for i := range g.active {
		g.active[i] = true
		g.park[i] = cycle
	}
	g.relist()
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

// sched is the gating state of a sequential Engine: the registry gate,
// one gate per registered arena, and the walk the registry gate drives.
// As the registry gate's population it keeps the park scan and the timers.
type sched struct {
	reg    clockGate
	arenas []*clockGate // by position in Engine.arenas
	// walk is the component list with every arena replaced by its gate;
	// quies is walk[i] as a Quiescable, nil when it cannot park.
	walk  []interface{ Tick(cycle uint64) }
	quies []Quiescable
	// nextTry is the cycle from which a component is next asked whether it
	// is quiet (a wake finds it due); wakeAt the timer its latest park set.
	nextTry []uint64
	wakeAt  []uint64
	heap    wakeHeap
	// duty decides when the gates stand down for the plain walk (duty.go).
	duty duty
	// pool is the crew the gates are dealt to, kept between runs and
	// rebuilt for a new crew size or registration count; crew is pool
	// while a run has hired it, nil otherwise (duty.go). dealt says the
	// workers hold the active lists (crewGates); reg then lists the
	// SerialTickers alone. phaseA says the workers are ticking: an arm
	// then waits for the coordinator.
	pool, crew *pool
	dealt      bool
	phaseA     bool
}

func (s *sched) TickList(idx []int, cycle uint64) {
	for _, i := range idx {
		s.walk[i].Tick(cycle)
	}
}

// report is the gated cycle's quiet report: every arena gate parks its
// quiet elements, then the registry gate its quiet components — an
// arena's slot among them once its gate has nothing active.
func (s *sched) report(cycle uint64) {
	for _, g := range s.arenas {
		g.report(cycle)
	}
	s.reg.report(cycle)
}

// QuietList asks each listed component that is due a look whether it
// is quiet beyond the next cycle — after every Tick of the cycle, so
// the answers see the whole cycle.
func (s *sched) QuietList(idx []int, cycle uint64, quiet []int) []int {
	return s.look(idx, cycle, quiet, &s.heap)
}

// look is QuietList with the timers of the parks it reports pushed on h:
// the registry's heap, or the heap of the worker reporting (crewGates).
func (s *sched) look(idx []int, cycle uint64, quiet []int, h *wakeHeap) []int {
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
				h.push(wakeEntry{wake: wake, idx: i})
			}
		}
	}
	return quiet
}

func (s *sched) ElemSkipIdle(i int, from, n uint64) {
	if q := s.quies[i]; q != nil {
		q.SkipIdle(from, n)
	}
}

// valid reports whether a timer still stands: its component is parked,
// by the park that set it (or one that set the same cycle).
func (s *sched) valid(ent wakeEntry) bool {
	return !s.reg.active[ent.idx] && s.wakeAt[ent.idx] == ent.wake
}

// wakeDue wakes, on gate g, every parked component whose timer on h
// has run out.
func (s *sched) wakeDue(h *wakeHeap, g *clockGate, cycle uint64) {
	for len(*h) > 0 && (*h)[0].wake <= cycle {
		if ent := h.pop(); s.valid(ent) {
			g.wake(ent.idx, cycle)
		}
	}
}

// earliest is the earliest standing timer on h, NeverWake for none.
func (s *sched) earliest(h *wakeHeap) uint64 {
	for len(*h) > 0 {
		if top := (*h)[0]; s.valid(top) {
			return top.wake
		}
		h.pop()
	}
	return NeverWake
}

// regGate is the gate that lists registry slot i when it is active: the
// registry's, or the owning worker's while the gates are dealt.
func (s *sched) regGate(i int) *clockGate {
	if s.dealt {
		if o := s.crew.owner[i]; o >= 0 {
			return &s.crew.gates[o].reg
		}
	}
	return &s.reg
}

// nextWake reports whether the whole registry is parked and, if so,
// until which cycle: its earliest standing timer, the workers' included.
func (s *sched) nextWake() (uint64, bool) {
	if len(s.reg.act) > 0 || s.dealt && s.crew.busy() {
		return 0, false
	}
	wake := s.earliest(&s.heap)
	if s.dealt {
		for w := range s.crew.gates {
			wake = min(wake, s.earliest(&s.crew.gates[w].heap))
		}
	}
	return wake, true
}

// ref is a resolved Target: its registry slot and, for an arena element,
// the arena's position in Engine.arenas (-1: a plain component) and the
// element. Narrow fields: an arm table holds one per wire.
type ref struct{ arena, elem, slot int32 }

// wakeElem wakes a parked arena element and then the arena's registry
// slot: the slot parks only on an empty gate and every wake goes through
// here, so it needs a look only when the element was parked.
func (s *sched) wakeElem(r ref, cycle uint64) {
	s.arenas[r.arena].wake(int(r.elem), cycle)
	s.reg.arm(int(r.slot), cycle)
}

// logSched forwards the registry gate's transitions to the SchedTrace.
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

// Armer returns one closure that re-activates every target — the
// scheduler half of the arm-on-input rule for a single hook (the probe
// collector's emit-time arm; the wires of an arena share an ArmTable).
// The closure costs a flag test per target when everything is active
// and is safe to call when gating is off. A target that is no
// SerialTicker keeps the gated walk on one core: only the coordinator
// arms within a cycle on a crew.
func (e *Engine) Armer(targets ...Target) (func(), bool) {
	a := &armer{e: e, refs: make([]ref, len(targets))}
	for n, t := range targets {
		r, ok := e.resolve(t)
		if !ok {
			return nil, false
		}
		a.refs[n] = r
		e.noteArm(r)
	}
	e.armers = append(e.armers, a)
	return a.arm, true
}

// armer is an Armer's closure: its targets, and whether a worker's Tick
// asked for them while the coordinator could not arm (late).
type armer struct {
	e    *Engine
	refs []ref
	late atomic.Bool
}

func (a *armer) arm() {
	s := a.e.sched
	if s == nil {
		return
	}
	if s.phaseA { // the coordinator arms them after the barrier (crewWalk)
		for _, r := range a.refs {
			if !s.reg.active[r.slot] && !a.late.Load() {
				a.late.Store(true)
			}
		}
		return
	}
	for _, r := range a.refs {
		if r.arena < 0 {
			s.reg.arm(int(r.slot), a.e.cycle)
		} else if int(r.arena) < len(s.arenas) && !s.arenas[r.arena].active[r.elem] {
			s.wakeElem(r, a.e.cycle) // gates exist from the first kernel entry
		}
	}
}

// noteArm counts an arm within the cycle (Armer, ArmTable.Also) that a
// crew could not make: of anything but a SerialTicker.
func (e *Engine) noteArm(r ref) {
	if _, ok := e.components[r.slot].(SerialTicker); !ok || r.arena >= 0 {
		e.soloArms++
	}
}

// ArmTable is the arm-on-input rule of a whole wire population as data:
// a row per wire instead of closures per wire. A wire that puts a flit
// on view for the next cycle calls Send with its index; the table
// queues the wake of its reader, and the gated walk applies the queue
// after the quiet report (flush), so the reader first runs in the cycle
// it can take the flit. Credits wake nobody: SkipIdle collects them.
type ArmTable struct {
	e    *Engine
	rows []ref   // per wire: who reads it
	from []ref   // per wire: who writes it
	also []int32 // per wire: one more registry slot to arm, -1 for none
	// pending is the wires whose readers are queued this cycle; cap =
	// rows, so a cycle in which every wire sends appends without growing.
	pending []int32
	// hook is what the wires call (Hook): send — Send, bound once — on
	// one core, sendCrew — crewSend — while the gates are dealt to a
	// crew, or nil while the gates stand down and a Send would find all
	// awake.
	hook, send, sendCrew func(i int)
	// On a crew of n (route): lists is, per wire, the list a Send queues
	// its reader on — sent[src*n+dst], src and dst the workers of the
	// wire's writer and reader — complemented where Also added a slot,
	// whose arm a worker's Send queues on late[src]. Every list has one
	// writer.
	n     int
	lists []int32
	sent  []wireList
	late  []wireList
	// routed is the crew and deal the lists are for; nil after an Also.
	routed *pool
	deal   int
}

// wireList is one writer's queue of wires, padded so that no two
// queues' headers share a cache line.
type wireList struct {
	w []int32
	_ [104]byte
}

// ArmTable builds the table for a wire population: writers[i] writes
// wire i, readers[i] reads it.
func (e *Engine) ArmTable(writers, readers []Target) (*ArmTable, error) {
	if len(writers) != len(readers) {
		return nil, errArena("arm table: writers and readers differ in number")
	}
	t := &ArmTable{
		e: e, rows: make([]ref, len(readers)), from: make([]ref, len(writers)), also: make([]int32, len(readers)),
		pending: make([]int32, 0, len(readers)),
	}
	t.send, t.sendCrew = t.Send, t.crewSend
	t.hook = t.send
	for i := range readers {
		var ok bool
		if t.rows[i], ok = e.resolve(readers[i]); !ok {
			return nil, errArena("arm table: unknown reader " + readers[i].Name)
		}
		if t.from[i], ok = e.resolve(writers[i]); !ok {
			return nil, errArena("arm table: unknown writer " + writers[i].Name)
		}
		t.also[i] = -1
	}
	e.tables = append(e.tables, t)
	return t, nil
}

// Hook returns the variable the wires call through; the engine sets it
// to nil while its gates stand down, and back to Send.
func (t *ArmTable) Hook() *func(i int) { return &t.hook }

// Also makes a flit sent on wire i arm the named plain component too,
// in the same cycle (the watchdog, on injection wires).
func (t *ArmTable) Also(i int, name string) error {
	r, ok := t.e.resolve(Target{Name: name})
	if !ok || r.arena >= 0 || i < 0 || i >= len(t.also) {
		return errArena("arm table: cannot also arm " + name)
	}
	t.also[i] = r.slot
	t.routed = nil
	t.e.noteArm(r)
	return nil
}

// Send is the wires' hook: wire i put a flit on view for the next
// cycle. A parked reader is queued; an awake one stays awake, since its
// quiet report counts the flit arriving. What Also added is armed now.
// No gates yet means nothing is parked yet.
func (t *ArmTable) Send(i int) {
	s := t.e.sched
	if s == nil {
		return
	}
	if r := t.rows[i]; r.arena < 0 {
		if int(r.slot) < len(s.reg.active) && !s.reg.active[r.slot] {
			t.pending = append(t.pending, int32(i))
		}
	} else if int(r.arena) < len(s.arenas) && !s.arenas[r.arena].active[r.elem] {
		t.pending = append(t.pending, int32(i))
	}
	if a := t.also[i]; a >= 0 {
		s.reg.arm(int(a), t.e.cycle)
	}
}

// flush wakes the readers queued this cycle for the next one.
func (t *ArmTable) flush(s *sched, next uint64) {
	for _, i := range t.pending {
		if r := t.rows[i]; r.arena < 0 {
			s.reg.arm(int(r.slot), next)
		} else if !s.arenas[r.arena].active[r.elem] {
			s.wakeElem(r, next)
		}
	}
	t.pending = t.pending[:0]
}

// crewSend is Send on a crew: the reader is queued on the writer's list
// for its owner, which wakes it after the barrier if it is parked
// (deliver) — no worker reads another's flags. What Also added waits for
// the coordinator if a worker sends (armLate), and is armed at once if
// the coordinator does, from a SerialTicker's Tick.
func (t *ArmTable) crewSend(i int) {
	l := t.lists[i]
	if l < 0 {
		l = ^l
		if s, a := t.e.sched, t.also[i]; !s.reg.active[a] {
			if s.phaseA {
				q := &t.late[l/int32(t.n)].w
				*q = append(*q, int32(i))
			} else {
				s.reg.wake(int(a), t.e.cycle)
			}
		}
	}
	q := &t.sent[l].w
	*q = append(*q, int32(i))
}

// route maps the table onto crew p, unless it is mapped onto its last
// deal already: the list of each wire's writer and reader, and an empty
// list for every pair of workers.
func (t *ArmTable) route(p *pool) {
	if t.routed == p && t.deal == p.deals {
		return
	}
	t.routed, t.deal = p, p.deals
	t.n = len(p.shards)
	t.lists = make([]int32, len(t.rows))
	for i := range t.rows {
		t.lists[i] = p.workerOf(t.e, t.from[i])*int32(t.n) + p.workerOf(t.e, t.rows[i])
		if t.also[i] >= 0 {
			t.lists[i] = ^t.lists[i]
		}
	}
	t.sent, t.late = make([]wireList, t.n*t.n), make([]wireList, t.n)
}

// deliver wakes, for the next cycle, the parked readers owned by worker
// w that every writer queued this cycle.
func (t *ArmTable) deliver(g *crewGates, w int, next uint64) {
	s := g.s
	for v := 0; v < t.n; v++ {
		q := &t.sent[v*t.n+w].w
		for _, i := range *q {
			if r := t.rows[i]; r.arena >= 0 {
				g.arenas[r.arena].arm(int(r.elem), next)
			} else {
				s.regGate(int(r.slot)).arm(int(r.slot), next)
			}
		}
		*q = (*q)[:0]
	}
}

// armLate arms what Also added for the wires the workers sent on.
func (t *ArmTable) armLate(s *sched, cycle uint64) {
	for v := range t.late {
		q := &t.late[v].w
		for _, i := range *q {
			s.reg.arm(int(t.also[i]), cycle)
		}
		*q = (*q)[:0]
	}
}

// crewGates is one worker's share of a gated engine's gates on a crew:
// active lists over the gates' own flags and watermarks for the
// registry slots (reg) and the arena elements (arenas, by position in
// Engine.arenas) it owns, its quiet report over them, and the heap of
// the timers that report sets. Every flag and watermark has one owner,
// so the workers share the gates' arrays without atomics. As reg's
// population it is the registry with its own heap.
type crewGates struct {
	e      *Engine
	s      *sched
	reg    clockGate
	arenas []clockGate
	heap   wakeHeap
	_      [64]byte
}

func (g *crewGates) TickList(idx []int, cycle uint64) { g.s.TickList(idx, cycle) }
func (g *crewGates) QuietList(idx []int, cycle uint64, quiet []int) []int {
	return g.s.look(idx, cycle, quiet, &g.heap)
}
func (g *crewGates) ElemSkipIdle(i int, from, n uint64) { g.s.ElemSkipIdle(i, from, n) }

// tick is the worker's first phase of a gated cycle: its active lists,
// its timers already woken (crewWalk).
func (g *crewGates) tick(cycle uint64) {
	g.reg.Tick(cycle)
	for k := range g.arenas {
		g.arenas[k].Tick(cycle)
	}
}

// report is the second, once every worker has ticked: the worker parks
// what went quiet and wakes what was sent input, as the one-core walk's
// report and flush do, and what its timers have due in the next cycle —
// while no worker ticks, so their SkipIdle may take from their wires.
func (g *crewGates) report(w int, cycle uint64) {
	for k := range g.arenas {
		g.arenas[k].report(cycle)
	}
	g.reg.report(cycle)
	for _, t := range g.e.tables {
		t.deliver(g, w, cycle+1)
	}
	g.s.wakeDue(&g.heap, &g.reg, cycle+1)
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
// arrays: a deal (pool.deal) fixes who owns what.
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
		g.e, g.s = e, s
		g.reg = clockGate{pop: g, active: s.reg.active, park: s.reg.park,
			act: make([]int, 0, owned[w]), quiet: make([]int, 0, owned[w])}
		g.arenas = make([]clockGate, len(s.arenas))
		for k, a := range s.arenas {
			span := len(a.active)/n + 1
			g.arenas[k] = clockGate{pop: a.pop, active: a.active, park: a.park,
				act: make([]int, 0, span), quiet: make([]int, 0, span)}
		}
	}
}

// deal hands the gates' active lists to the crew: every active registry
// slot and arena element to the worker that owns it, the SerialTickers
// staying on reg's.
func (s *sched) deal() {
	p := s.crew
	for w := range p.gates {
		g := &p.gates[w]
		g.reg.act = g.reg.act[:0]
		for k := range g.arenas {
			g.arenas[k].act = g.arenas[k].act[:0]
		}
	}
	serial := s.reg.act[:0]
	for _, i := range s.reg.act {
		switch o := p.owner[i]; o {
		case coordinator:
			serial = append(serial, i)
		case arenaSlot: // its elements are dealt below
		default:
			p.gates[o].reg.act = append(p.gates[o].reg.act, i)
		}
	}
	s.reg.act = serial
	s.reg.ordered = false // crewWalk orders the SerialTickers itself
	for k, g := range s.arenas {
		for _, i := range g.act {
			sh := &p.gates[dealtTo(i, len(g.active), len(p.gates))].arenas[k]
			sh.act = append(sh.act, i)
		}
		g.act = g.act[:0]
	}
	s.dealt = true
}

// gather takes the active lists and the timers back from the crew, as
// the one-core walk keeps them: every gate's list from its flags. The
// arenas' slots need nothing: a deal finds them awake — every run entry
// and every stand-down wakes the registry whole — and nothing parks or
// arms them while the crew walks.
func (s *sched) gather() {
	if !s.dealt {
		return
	}
	s.dealt = false
	for w := range s.crew.gates {
		g := &s.crew.gates[w]
		for _, ent := range g.heap {
			s.heap.push(ent)
		}
		g.heap = g.heap[:0]
	}
	s.reg.ordered = true
	s.reg.relist()
	for _, g := range s.arenas {
		g.relist()
	}
}

// crewWalk executes a gated cycle on the crew: the workers tick what
// they have active; the coordinator arms what the workers' Ticks asked
// it to and ticks the SerialTickers; the workers report their quiet and
// apply their wakes; the coordinator reports the SerialTickers'. Every
// worker keeps the timers of what it owns, the coordinator those of the
// SerialTickers. Every timer due is woken before any worker ticks, as
// on the one-core walk: a wake pays the parked its SkipIdle, which takes
// from wires whose other end may tick on another worker. A worker wakes
// what its timers have due next in its report; the coordinator wakes
// the rest — due in the first cycle of a crew or after a skip — here.
func (e *Engine) crewWalk(s *sched) {
	p, c := s.crew, e.cycle
	s.wakeDue(&s.heap, &s.reg, c)
	for w := range p.gates {
		s.wakeDue(&p.gates[w].heap, &p.gates[w].reg, c)
	}
	if s.reg.dirty {
		slices.Sort(s.reg.act)
		s.reg.dirty = false
	}
	p.next = c
	s.phaseA = true
	p.gate.release(cmdGated)
	p.gates[0].tick(c)
	p.join()
	s.phaseA = false
	for _, a := range e.armers {
		if a.late.Load() {
			a.late.Store(false)
			a.arm()
		}
	}
	for _, t := range e.tables {
		t.armLate(s, c)
	}
	s.reg.Tick(c)
	p.gate.release(cmdReport)
	p.gates[0].report(0, c)
	p.join()
	s.reg.report(c)
	for w := range p.gates {
		for k := range p.gates[w].arenas {
			s.duty.busy += len(p.gates[w].arenas[k].act)
		}
	}
}

// schedEnter syncs the gates with the registry and re-activates every
// parked component. It runs once per kernel entry point: state may have
// changed between runs (control-plane enables, new fault schedules,
// stats resets) in ways a parked component's recorded wake cannot see,
// so everything gets one honestly evaluated cycle and re-parks itself
// via the normal scan. Arena elements are not re-activated: between
// runs only input changes them, and input arrives through arm hooks.
func (e *Engine) schedEnter() {
	s := e.sched
	for n := len(s.walk); n < len(e.components); n++ {
		var c interface{ Tick(cycle uint64) } = e.components[n]
		if k := e.arenaOf(e.components[n]); k >= 0 {
			a := e.arenas[k]
			g := &clockGate{pop: a, quiet: make([]int, 0, a.Len())}
			for i := 0; i < a.Len(); i++ {
				g.add(e.cycle)
			}
			s.arenas = append(s.arenas, g)
			s.duty.size += a.Len()
			c = g
		}
		q, _ := c.(Quiescable)
		s.walk = append(s.walk, c)
		s.quies = append(s.quies, q)
		s.nextTry = append(s.nextTry, 0)
		s.wakeAt = append(s.wakeAt, NeverWake)
		s.reg.add(e.cycle)
	}
	if cap(s.reg.quiet) < len(s.walk) {
		s.reg.quiet = make([]int, 0, len(s.walk))
	}
	for i := range s.reg.active {
		s.reg.arm(i, e.cycle)
	}
	s.heap = s.heap[:0]
}

// settle pays the outstanding skip accounting of every parked component
// and arena element up to the current cycle, so any observer that runs
// between kernel calls sees exactly the counters a naive schedule would
// have produced.
func (e *Engine) settle() {
	s := e.sched
	s.reg.settle(e.cycle)
	for _, g := range s.arenas {
		g.settle(e.cycle)
	}
}

// rebase moves the cycle counter — LoadState's step. Outstanding skip
// accounting references the old timeline, so it is settled before the
// counter moves; then every gate restarts on the new timeline, up and
// probing afresh.
func (e *Engine) rebase(cycle uint64) {
	s := e.sched
	if s != nil {
		e.schedEnter()
		e.settle()
		e.standUp()
		s.duty.restart(cycle)
		clear(s.nextTry) // the backoff restarts on the new timeline too
		s.reg.rebase(cycle)
		for _, g := range s.arenas {
			g.rebase(cycle)
		}
	}
	e.cycle = cycle
}
