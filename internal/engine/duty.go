// The duty cycle: a gate that stands down, and a stretch that pools.
//
// Parking pays only where there is something to park. On a busy network
// nearly every switch is active every cycle, and then the gates'
// bookkeeping — active lists, quiet reports, the registry's looks, a
// wake hook on every Send — is pure cost over the plain walk.
// So a gated engine measures how busy its arenas are: over a probe
// window of probeCycles cycles it sums the active elements of every
// arena gate after each gated cycle (a fast-forwarded cycle adds none).
// When that sum reaches standDownShare of everything the gates hold in
// every cycle of the window, the gates stand down: every parked element
// is paid and woken, the wires' wake hooks go off, and the engine walks
// the plain schedule for a stretch. When the stretch ends the hooks go
// back on and the gates resume with everything active — the first
// quiet report parks the idle again — for another probe window. A stretch
// doubles each time a probe finds the network still busy, up to
// maxStretch, and drops back to minStretch as soon as one does not: a
// steady busy run pays one probe window in thousands of cycles, and a
// run whose load falls is parking again within a stretch.
//
// A stretch is also where a pool pays: every element is busy, nothing
// parks, and the plain schedule is exactly what a pool of workers
// walks (pool.go). So an engine without workers of its own hands the
// stretch to one — a worker per poolSpan arena elements, no more than
// GOMAXPROCS, and no more helper goroutines than a process-wide budget
// of GOMAXPROCS−1 has free, which platforms running side by side share.
// Fewer than two workers walk the stretch plain, as a small platform or
// a one-processor host always does. The helpers are taken when the
// stretch begins, or goes on into a new run, and given back when it
// ends or the run does, goroutines included: none outlives a run.
//
// None of it shows in results. The plain walk is the reference every
// gated and pooled walk is held to; a stand-down settles every debt
// before the first plain cycle, and a stand-up leaves nothing parked.
// Which walk is on is scheduling ephemera like the rest of sched: never
// serialized, and restarted — gates up, probing afresh — by rebase.
package engine

import (
	"runtime"
	"sync/atomic"
)

// The duty cycle's constants. A probe window is short against a stretch
// so that a busy run spends almost all of its cycles on the plain walk.
// The share is where the walks part (EXPERIMENTS.md, "A gate that
// stands down"): the gates lose 6–20 % on platforms that keep 0.59–1.00
// of their switches active, and win 1.08–2.1× at 0.15–0.44. The span is
// where a pool parts from the plain walk on a busy mesh, with margin
// (EXPERIMENTS.md, "Busy stretches on a pool"): two workers lose at 8
// switches each, break even between 18 and 32, and win 1.5–1.8× from 50
// on.
const (
	probeCycles    = 64
	minStretch     = 256
	maxStretch     = 8192
	standDownShare = 33 // sixty-fourths of the arena elements, on average over a window
	poolSpan       = 64 // arena elements per worker of a pooled stretch, at least
)

// duty is the stand-down state of a sched.
type duty struct {
	size int    // arena elements under the gates
	busy int    // active arena elements summed over the window's gated cycles
	from uint64 // the cycle the probe window began
	// share is the stand-down threshold in sixty-fourths; a rig may set
	// it (0 stands down after every window, above 64 never).
	share   int
	down    bool
	next    uint64 // the cycle the window or the stretch ends
	stretch uint64 // the next stand-down's length
	// span is the pooled stretch's arena elements per worker, at least;
	// a rig may lower it (to 1 at the least).
	span int
	// crew is the pool walking the stretch in this run, nil while it
	// walks plain; all its workers but the caller are helpers from the
	// budget.
	crew *pool
}

// count adds the arena gates' active elements after a gated cycle.
func (d *duty) count(arenas []*clockGate) {
	for _, g := range arenas {
		d.busy += len(g.act)
	}
}

// probe begins a probe window at the given cycle.
func (d *duty) probe(cycle uint64) {
	d.busy, d.from, d.next = 0, cycle, cycle+probeCycles
}

// restart begins a fresh probe window at the shortest stretch.
func (d *duty) restart(cycle uint64) {
	d.probe(cycle)
	d.stretch = minStretch
}

// gatesUp decides, before a cycle of a gated engine, which walk executes
// it: the gates (true) or, while they stand down, the plain schedule.
// It inlines; the cycle that ends a window or a stretch goes to turn.
func (e *Engine) gatesUp() bool {
	if d := &e.sched.duty; e.cycle < d.next {
		return !d.down
	}
	return e.turn()
}

// turn is where the gates resume when a stretch has run out and where
// they stand down when a probe window has found the arenas busy.
func (e *Engine) turn() bool {
	d := &e.sched.duty
	if d.down {
		e.standUp()
		return true
	}
	// In floating point: a fast-forward may have stretched the window
	// arbitrarily far.
	busy := d.size > 0 && float64(d.busy)*64 >= float64(d.share)*float64(e.cycle-d.from)*float64(d.size)
	d.probe(e.cycle)
	if !busy {
		d.stretch = minStretch
		return true
	}
	e.standDown()
	return false
}

// standDown pays every parked component and arena element up to the
// current cycle, wakes them all — the registry's as wakes a SchedTrace
// sees — switches the arm hooks off and starts a stretch of plain cycles.
func (e *Engine) standDown() {
	s := e.sched
	e.settle()
	for i, on := range s.reg.active {
		if !on {
			s.reg.wake(i, e.cycle)
		}
	}
	for _, g := range s.arenas {
		g.rebase(e.cycle)
	}
	s.heap = s.heap[:0]
	e.armHooks(false)
	d := &s.duty
	d.down, d.next = true, e.cycle+d.stretch
	d.stretch = min(2*d.stretch, maxStretch)
	e.hire()
}

// standUp ends a stand-down — its stretch ran out, the timeline moved,
// or the gates are going away — so whatever comes next finds the hooks
// on, no pool and a probe window open. The gates are already
// everything-active; their first quiet report parks the idle again.
func (e *Engine) standUp() {
	if d := &e.sched.duty; d.down {
		e.dismiss()
		d.down = false
		d.probe(e.cycle)
		e.armHooks(true)
	}
}

// StandingDown reports whether the gates stand down at the current cycle:
// the engine walks the plain schedule, hooks off, until its next probe.
func (e *Engine) StandingDown() bool { return e.sched != nil && e.sched.duty.down }

// helpers is the process-wide budget of the stand-down pools: the
// goroutines they hold beside their callers', GOMAXPROCS−1 at most
// together, so that platforms running side by side (serve sessions,
// sweep workers) never put more spinners on the host than it has
// processors.
var helpers atomic.Int32

// hire hands the stretch under way to a pool when one pays: a worker per
// span arena elements, at most GOMAXPROCS, the caller's goroutine and as
// many helpers as the budget has free. Fewer than two leave it plain.
func (e *Engine) hire() {
	d := &e.sched.duty
	procs := runtime.GOMAXPROCS(0)
	want := int32(min(procs, d.size/d.span) - 1)
	for {
		held := helpers.Load()
		n := min(want, int32(procs-1)-held)
		if n <= 0 {
			return
		}
		if helpers.CompareAndSwap(held, held+n) {
			d.crew = newPool(int(n) + 1)
			d.crew.enter(e)
			return
		}
	}
}

// dismiss ends the stretch's pool, if it has one: its goroutines exit
// and its helpers go back to the budget.
func (e *Engine) dismiss() {
	d := &e.sched.duty
	if d.crew == nil {
		return
	}
	d.crew.leave()
	d.crew.close()
	helpers.Add(-int32(len(d.crew.shards) - 1))
	d.crew = nil
}

// armHooks switches the hook of every arm table: while the gates stand
// down everything is awake, and a Send calls nothing.
func (e *Engine) armHooks(on bool) {
	for _, t := range e.tables {
		t.hook = nil
		if on {
			t.hook = t.send
		}
	}
}
