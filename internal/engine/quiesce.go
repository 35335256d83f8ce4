// Quiescence-aware scheduling — the software analogue of clock gating.
//
// Most cycles of a realistic emulation run are idle: generators sleep
// through inter-packet gaps, switches sit with empty buffers, links
// carry nothing. The FPGA pays nothing for an idle device; the naive
// kernel still walks it twice per cycle. A component that can prove it
// will stage and commit nothing for a while implements Quiescable; the
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
//     new input, every skipped Tick/Commit pair would have been a
//     no-op apart from derivable per-cycle counters (link utilization
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
// gated engine without workers instantiates it once over the component
// registry and once over the elements of every registered arena; an
// arena's gate then stands in the arena's registry slot, so gating nests: the
// registry parks the slot when the arena's gate has nothing active. The
// gate never asks an element whether it is quiet: the population's
// commit reports the ones that went quiet. An arena knows that inside
// its own commit loop, on state it just touched, and an arena element
// only ever wakes on input. The registry (sched) has to ask each
// component through an interface, so it rations the looks with a
// backoff, and it keeps the timers. The arenas themselves only store and
// evaluate elements (arena.go). On a network busy enough that parking
// costs more than it saves, the gates stand down for the plain walk
// (duty.go).
package engine

// NeverWake is the wake cycle of a component that only input can
// reactivate.
const NeverWake = ^uint64(0)

// Quiescable is implemented by components that can declare idleness.
// See the package comment above for the quiet contract; a component
// that cannot honour it simply does not implement the interface and is
// walked every cycle.
type Quiescable interface {
	Component
	// NextWake reports whether the component is quiet as of the end of
	// the given (just committed) cycle and, if so, the first future
	// cycle at which it may act again absent new input (NeverWake if
	// only input reactivates it).
	NextWake(cycle uint64) (wake uint64, quiet bool)
	// SkipIdle accounts n skipped cycles [from, from+n) during which
	// the component was parked: per-cycle counters and internal
	// countdowns advance exactly as n no-op Tick/Commit pairs would
	// have advanced them.
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
// cycles. CommitList also reports, as positions in idx, the elements
// that stay quiet from the next cycle on until input arms them or a
// timer their population keeps wakes them (Arena has the contract). The
// registry (sched, below) and every Arena implement it.
type population interface {
	TickList(idx []int, cycle uint64)
	CommitList(idx []int, cycle uint64, quiet []int) []int
	ElemSkipIdle(i int, from, n uint64)
}

// clockGate schedules one population: it keeps the set of active elements,
// walks only those, parks the ones its population reports quiet, wakes
// them on input (arm), and remembers from which cycle each parked
// element is owed idle cycles. A gate is itself a Quiescable component
// — quiet when nothing in it is active — which is what lets an arena's
// gate sit in the registry gate's walk.
type clockGate struct {
	name string
	pop  population
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
	quiet  []int    // scratch of Commit: positions in act reported quiet; cap = population
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

// ComponentName implements Component.
func (g *clockGate) ComponentName() string { return g.name }

// Tick implements Component: tick the active list. The bound grows: an
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

// Commit implements Component: commit the active list, park the
// elements the population reports quiet — an idle element leaves the
// walk in the cycle it goes idle, a busy one costs nothing here — and
// close the list up from the first of them. An element armed during the
// commit sits behind the committed ones and stays. An arena's gate runs
// inside the registry's commit phase, before later components have
// committed: hence the limits on what a quiet report may look at.
func (g *clockGate) Commit(cycle uint64) {
	g.quiet = g.pop.CommitList(g.act, cycle, g.quiet[:0])
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

// rebase restarts the gate at the given cycle after the timeline moved
// or element state was replaced under it (Reset, LoadState): every
// element is active again with its watermark on the new timeline, and
// the next executed cycle's commit re-derives the parked set from the
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
	walk  []Component
	quies []Quiescable
	// nextTry is the cycle from which a component is next asked whether it
	// is quiet (a wake finds it due); wakeAt the timer its latest park set.
	nextTry []uint64
	wakeAt  []uint64
	heap    wakeHeap
	// duty decides when the gates stand down for the plain walk (duty.go).
	duty duty
}

func (s *sched) TickList(idx []int, cycle uint64) {
	for _, i := range idx {
		s.walk[i].Tick(cycle)
	}
}

// CommitList commits the listed components, then asks each one that is
// due a look whether it is quiet beyond the next cycle — after all of
// them have committed, so the answers see the whole cycle.
func (s *sched) CommitList(idx []int, cycle uint64, quiet []int) []int {
	for _, i := range idx {
		s.walk[i].Commit(cycle)
	}
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
				s.heap.push(wakeEntry{wake: wake, idx: i})
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

// wakeDue wakes every parked component whose timer has run out.
func (s *sched) wakeDue(cycle uint64) {
	for len(s.heap) > 0 && s.heap[0].wake <= cycle {
		if ent := s.heap.pop(); s.valid(ent) {
			s.reg.wake(ent.idx, cycle)
		}
	}
}

// nextWake reports whether the whole registry is parked and, if so,
// until which cycle: its earliest standing timer.
func (s *sched) nextWake() (uint64, bool) {
	if len(s.reg.act) > 0 {
		return 0, false
	}
	for len(s.heap) > 0 {
		if top := s.heap[0]; s.valid(top) {
			return top.wake, true
		}
		s.heap.pop()
	}
	return NeverWake, true
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
// and is safe to call when gating is off.
func (e *Engine) Armer(targets ...Target) (func(), bool) {
	refs := make([]ref, len(targets))
	for n, t := range targets {
		r, ok := e.resolve(t)
		if !ok {
			return nil, false
		}
		refs[n] = r
	}
	return func() {
		for _, r := range refs {
			if s := e.sched; s == nil {
				return
			} else if r.arena < 0 {
				s.reg.arm(int(r.slot), e.cycle)
			} else if int(r.arena) < len(s.arenas) && !s.arenas[r.arena].active[r.elem] {
				s.wakeElem(r, e.cycle) // gates exist from the first kernel entry
			}
		}
	}, true
}

// ArmTable is the arm-on-input rule of a whole wire population as data:
// a row per wire instead of closures per wire. A wire that puts a flit
// on view for the next cycle calls Send with its index; the table
// queues the wake of its reader, and the gated walk applies the queue
// after the commit phase (flush), so the reader first runs in the cycle
// it can take the flit. Credits wake nobody: SkipIdle collects them.
type ArmTable struct {
	e    *Engine
	rows []ref   // per wire: who reads it
	also []int32 // per wire: one more registry slot to arm, -1 for none
	// pending is the wires whose readers are queued this cycle; cap =
	// rows, so a cycle in which every wire sends appends without growing.
	pending []int32
	// hook is what the wires call (Hook): send — Send, bound once — or
	// nil while the gates stand down and a Send would find all awake.
	hook, send func(i int)
}

// ArmTable builds the table for a wire population; consumers[i] reads
// wire i.
func (e *Engine) ArmTable(consumers []Target) (*ArmTable, error) {
	t := &ArmTable{
		e: e, rows: make([]ref, len(consumers)), also: make([]int32, len(consumers)),
		pending: make([]int32, 0, len(consumers)),
	}
	t.send = t.Send
	t.hook = t.send
	for i, c := range consumers {
		var ok bool
		if t.rows[i], ok = e.resolve(c); !ok {
			return nil, errArena("arm table: unknown consumer " + c.Name)
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
		c := e.components[n]
		if k := e.arenaOf(c); k >= 0 {
			a := e.arenas[k]
			g := &clockGate{name: a.ComponentName(), pop: a, quiet: make([]int, 0, a.Len())}
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

// rebase moves the cycle counter — the one step Reset and LoadState
// share. Outstanding skip accounting references the old timeline, so it
// is settled before the counter moves; then the observers are told of
// the jump, and every gate restarts on the new timeline, up and probing
// afresh.
func (e *Engine) rebase(cycle uint64, observers []func(delta uint64)) {
	s := e.sched
	if s != nil {
		e.schedEnter()
		e.settle()
	}
	for _, f := range observers {
		f(cycle - e.cycle)
	}
	if s != nil {
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
