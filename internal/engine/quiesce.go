// Quiescence-aware scheduling — the software analogue of clock gating.
//
// Most cycles of a realistic emulation run are idle: generators sleep
// through inter-packet gaps, switches sit with empty buffers, links
// carry nothing. The FPGA pays nothing for an idle device; the naive
// kernel still walks it twice per cycle. A component that can prove it
// will stage and commit nothing for a while implements Quiescable; the
// kernel then parks it — removes it from the per-cycle walk — until
// either its declared wake cycle arrives (wake heap) or a neighbour
// stages something onto one of its input wires (arm hook, installed by
// the platform on the link Send path). When every component is parked
// the kernel fast-forwards the global cycle counter straight to the
// earliest wake.
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
// The whole policy — who is active, when to look for a park, how long
// to back off, who is owed what — is one type, clockGate, below. The
// sequential kernel instantiates it once over the component registry
// and once over the elements of every registered arena; an arena's gate
// then stands in the arena's registry slot, so gating nests: the
// registry parks the slot when the arena's gate has nothing active. The
// arenas themselves only store and evaluate elements (arena.go).
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

// wakeEntry is a heap record: element idx sleeps until wake. gen
// guards against stale entries (the element woke and re-parked since
// the push); entries are discarded lazily on pop.
type wakeEntry struct {
	wake uint64
	idx  int
	gen  uint64
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
// addressed by index, evaluated in batches, each able to say whether
// it is quiet and to absorb skipped cycles. The sequential kernel's
// registry (sched, below) and every Arena implement it.
type population interface {
	TickList(idx []int, cycle uint64)
	CommitList(idx []int, cycle uint64)
	ElemNextWake(i int, cycle uint64) (wake uint64, quiet bool)
	ElemSkipIdle(i int, from, n uint64)
}

// parkRetry is the scan backoff: an element found busy is re-examined
// for parking every parkRetry-th cycle instead of every cycle. Parking
// is transparent, so delaying it never changes results — it only trims
// the scan cost at saturation.
const parkRetry = 8

// clockGate schedules one population: it keeps the set of active elements,
// walks only those, parks the ones that report quiet, wakes them on a
// timer (wake heap) or on input (arm), and remembers from which cycle
// each parked element is owed idle cycles. A gate is itself a
// Quiescable component — quiet when nothing in it is active — which is
// what lets an arena's gate sit in the registry gate's walk.
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
	// nextTry is the cycle from which an active element is next
	// considered for parking: a busy one backs off parkRetry cycles, one
	// that cannot park at all (not Quiescable) holds NeverWake.
	nextTry []uint64
	gen     []uint64 // bumped on every park/wake; validates heap entries
	heap    wakeHeap
	// log, when set, is told of every park (true) and wake (false). The
	// registry gate reports them to the engine's SchedTrace; arena gates
	// stay silent, as element scheduling always has.
	log func(park bool, cycle uint64, i int)
}

// add appends one active element slot.
func (g *clockGate) add(canPark bool, cycle uint64) {
	try := NeverWake
	if canPark {
		try = 0
	}
	g.act = append(g.act, len(g.active))
	g.active = append(g.active, true)
	g.park = append(g.park, cycle)
	g.nextTry = append(g.nextTry, try)
	g.gen = append(g.gen, 0)
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
	g.gen[i]++
	if g.park[i] < cycle {
		g.pop.ElemSkipIdle(i, g.park[i], cycle-g.park[i])
	}
	g.nextTry[i] = 0
	g.act = append(g.act, i)
	g.dirty = true
	if g.log != nil {
		g.log(false, cycle, i)
	}
}

// ComponentName implements Component.
func (g *clockGate) ComponentName() string { return g.name }

// Tick implements Component: wake every validly parked element whose
// timer has run out, then tick the active list. The bound grows: an
// element ticked here may stage input for a parked one, whose arm hook
// appends it to act, and the next batch picks it up in this same
// cycle. It was quiet, so its catch-up tick stages nothing and reads
// nothing another element staged this cycle.
func (g *clockGate) Tick(cycle uint64) {
	for len(g.heap) > 0 && g.heap[0].wake <= cycle {
		ent := g.heap.pop()
		if g.gen[ent.idx] == ent.gen { // still the park that pushed it
			g.wake(ent.idx, cycle)
		}
	}
	if g.ordered && g.dirty {
		g.relist()
	}
	for done := 0; done < len(g.act); {
		n := len(g.act)
		g.pop.TickList(g.act[done:n], cycle)
		done = n
	}
}

// Commit implements Component and doubles as the park scan: commit the
// active list, then park each element that is due a look and reports
// quiet beyond the next cycle. For an arena's gate this runs inside the
// registry's commit phase, before later components have committed, so
// an element's quiet predicate must not depend on them (the switch
// checks its input wires with PendingFlit, which sees staged flits).
func (g *clockGate) Commit(cycle uint64) {
	g.pop.CommitList(g.act, cycle)
	w := 0
	for r := 0; r < len(g.act); r++ { // len re-read: a commit may arm
		i := g.act[r]
		if cycle >= g.nextTry[i] {
			wake, quiet := g.pop.ElemNextWake(i, cycle)
			if quiet && wake > cycle+1 {
				g.active[i] = false
				g.park[i] = cycle + 1
				g.gen[i]++
				if wake != NeverWake {
					g.heap.push(wakeEntry{wake: wake, idx: i, gen: g.gen[i]})
				}
				if g.log != nil {
					g.log(true, cycle, i)
				}
				continue
			}
			if !quiet {
				g.nextTry[i] = cycle + parkRetry
			}
		}
		g.act[w] = i
		w++
	}
	g.act = g.act[:w]
}

// NextWake implements Quiescable: the gate is quiet when nothing in it
// is active, until its earliest valid timer.
func (g *clockGate) NextWake(cycle uint64) (uint64, bool) {
	if len(g.act) > 0 {
		return 0, false
	}
	for len(g.heap) > 0 {
		if top := g.heap[0]; g.gen[top.idx] == top.gen {
			return top.wake, true
		}
		g.heap.pop()
	}
	return NeverWake, true
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
// element is active again with its watermark and backoff on the new
// timeline, timers are dropped, and the next executed cycle's scan
// re-derives the parked set from the elements' own state. The caller
// settles first, so no debt is outstanding.
func (g *clockGate) rebase(cycle uint64) {
	g.heap = g.heap[:0]
	for i := range g.active {
		g.active[i] = true
		g.park[i] = cycle
		if g.nextTry[i] != NeverWake {
			g.nextTry[i] = 0
		}
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

// sched is the gating state of a sequential Engine: the registry gate,
// one gate per registered arena, and the walk the registry gate drives.
// It is the registry gate's population.
type sched struct {
	reg    clockGate
	arenas []*clockGate // by position in Engine.arenas
	// walk is the component list with every arena replaced by its gate;
	// quies is walk[i] as a Quiescable, nil when it cannot park.
	walk  []Component
	quies []Quiescable
}

func (s *sched) TickList(idx []int, cycle uint64) {
	for _, i := range idx {
		s.walk[i].Tick(cycle)
	}
}

func (s *sched) CommitList(idx []int, cycle uint64) {
	for _, i := range idx {
		s.walk[i].Commit(cycle)
	}
}

func (s *sched) ElemNextWake(i int, cycle uint64) (uint64, bool) {
	return s.quies[i].NextWake(cycle)
}

func (s *sched) ElemSkipIdle(i int, from, n uint64) {
	if q := s.quies[i]; q != nil {
		q.SkipIdle(from, n)
	}
}

// SetGated enables or disables quiescence-aware scheduling. Disabled
// (the default for a fresh engine) the kernel walks every component
// every cycle, exactly as before this optimisation existed. Switching
// off settles any outstanding skip accounting first. Results are
// bit-identical either way; gating only changes how fast idle cycles
// execute.
func (e *Engine) SetGated(on bool) {
	if on {
		if e.sched == nil {
			s := &sched{}
			s.reg = clockGate{name: "registry", pop: s, ordered: true, log: e.logSched}
			e.sched = s
		}
		return
	}
	if e.sched != nil {
		e.schedEnter()
		e.settle()
		e.sched = nil
	}
}

// Gated reports whether quiescence-aware scheduling is enabled.
func (e *Engine) Gated() bool { return e.sched != nil }

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

// Armer returns one closure that re-activates every target — the
// scheduler half of the arm-on-input rule. The platform binds one to
// each wire's Send hook so the wire, its consumer and (on injection
// wires) the watchdog wake in the same cycle the input is staged;
// arming an arena element also arms the arena's registry slot. The
// closure costs a flag test per target when everything is active and
// is safe to call when gating is off.
func (e *Engine) Armer(targets ...Target) (func(), bool) {
	type ref struct{ arena, elem, slot int } // arena -1: a plain component
	refs := make([]ref, len(targets))
	for n, t := range targets {
		slot, ok := e.names[t.Name]
		if !ok {
			return nil, false
		}
		k := e.arenaOf(e.components[slot])
		if k >= 0 && (t.Elem < 0 || t.Elem >= e.arenas[k].Len()) {
			return nil, false
		}
		refs[n] = ref{arena: k, elem: t.Elem, slot: slot}
	}
	return func() {
		s := e.sched
		if s == nil {
			return
		}
		for _, r := range refs {
			if r.arena < 0 {
				s.reg.arm(r.slot, e.cycle)
			} else if r.arena < len(s.arenas) { // gates exist from the first kernel entry
				// An active element implies an active slot (the slot parks
				// only on an empty gate, and every wake goes through here),
				// so the slot needs a look only when the element was parked.
				if g := s.arenas[r.arena]; !g.active[r.elem] {
					g.wake(r.elem, e.cycle)
					s.reg.arm(r.slot, e.cycle)
				}
			}
		}
	}, true
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
			g := &clockGate{name: a.ComponentName(), pop: a}
			for i := 0; i < a.Len(); i++ {
				g.add(true, e.cycle)
			}
			s.arenas = append(s.arenas, g)
			c = g
		}
		q, _ := c.(Quiescable)
		s.walk = append(s.walk, c)
		s.quies = append(s.quies, q)
		s.reg.add(q != nil, e.cycle)
	}
	for i := range s.reg.active {
		s.reg.arm(i, e.cycle)
	}
	s.reg.heap = s.reg.heap[:0]
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
// is settled before the counter moves; then every gate restarts on the
// new one.
func (e *Engine) rebase(cycle uint64) {
	if s := e.sched; s != nil {
		e.schedEnter()
		e.settle()
		s.reg.rebase(cycle)
		for _, g := range s.arenas {
			g.rebase(cycle)
		}
	}
	e.cycle = cycle
}

// stepGated executes one cycle over the active set.
func (e *Engine) stepGated() {
	g := &e.sched.reg
	g.Tick(e.cycle)
	g.Commit(e.cycle)
	e.cycle++
}

// runGated is the gated core of Run and RunUntil. The stop predicate
// is evaluated at exactly the same points as the naive kernel — before
// every executed cycle, including cycles reached by fast-forward — so
// the stop cycle is bit-identical: the quiet contract guarantees no
// Stopper/Aborter answer changes inside a skipped window.
func (e *Engine) runGated(maxCycles uint64, poll bool) (executed uint64, stopped bool) {
	e.schedEnter()
	for executed < maxCycles {
		if poll {
			if stop, byStopper := e.pollStop(); stop {
				e.settle()
				return executed, byStopper
			}
		}
		if wake, quiet := e.sched.reg.NextWake(e.cycle); quiet && wake > e.cycle {
			// Everything is parked: fast-forward to the earliest timer,
			// bounded by the remaining cycle budget. The cycle executed
			// there wakes whatever is due.
			target := e.cycle + (maxCycles - executed)
			if target < e.cycle || wake < target { // overflow, or a timer first
				target = wake
			}
			if e.strace != nil {
				e.strace.SchedFastForward(e.cycle, target)
			}
			executed += target - e.cycle
			e.cycle = target
			continue
		}
		e.stepGated()
		executed++
	}
	e.settle()
	return executed, false
}
