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
// every cycle of the window — less where a crew walks the stretch,
// below — the gates stand down: every parked element is paid and woken,
// the wires' wake hooks go off, and the engine walks the plain schedule
// for a stretch. When the stretch ends the hooks go
// back on and the gates resume with everything active — the first
// quiet report parks the idle again — for another probe window. A stretch
// doubles each time a probe finds the network still busy, up to
// maxStretch, and drops back to minStretch as soon as one does not: a
// steady busy run pays one probe window in thousands of cycles, and a
// run whose load falls is parking again within a stretch.
//
// A stretch is also where a pool pays: nothing parks, and the plain
// schedule is exactly what a pool of workers walks (pool.go). So an
// engine without workers of its own hands the stretch to a crew — a
// worker per poolSpan arena elements, no more than GOMAXPROCS, and no
// more helper goroutines than a process-wide budget of GOMAXPROCS−1 has
// free, which platforms running side by side, sweep points and their
// fork crews share. And since a crew of n walks a stretch in about
// 1/n of the plain walk's time, the probe counts the crew it could
// hire: a crew of n stands down at
// standDownShare/n of the arena elements active. A crew of one — a
// small platform, a one-processor host, a budget held elsewhere — walks
// the stretch plain, at the share a plain walk needs. The helpers are
// taken when the stretch begins, or goes on into a new run, and given
// back when it ends or the run does, goroutines included: none outlives
// a run. A stretch whose run cannot hire back the crew it counted on
// stands up instead.
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
// The share is where the gated walk parts from the plain one
// (EXPERIMENTS.md, "A gate that stands down"): the gates lose 6–20 % on
// platforms that keep 0.59–1.00 of their switches active, and win
// 1.08–2.1× at 0.15–0.44. A crew of n divides it by n (EXPERIMENTS.md,
// "Sparse stretches on a pool": two workers meet the gated walk at
// 0.18–0.20, below 33/128 ≈ 0.26). The span is where a pool parts
// from the plain walk on a busy mesh, with margin (EXPERIMENTS.md, "Busy
// stretches on a pool"): two workers lose at 8 switches each, break even
// between 18 and 32, and win 1.5–1.8× from 50 on.
const (
	probeCycles    = 64
	minStretch     = 256
	maxStretch     = 8192
	standDownShare = 33 // sixty-fourths of the arena elements, on average over a window, for a crew of one
	poolSpan       = 64 // arena elements per worker of a pooled stretch, at least
)

// duty is the stand-down state of a sched.
type duty struct {
	size int    // arena elements under the gates
	busy int    // active arena elements summed over the window's gated cycles
	from uint64 // the cycle the probe window began
	// share is the stand-down threshold in sixty-fourths for a crew of
	// one; a rig may set it (0 stands down after every window, above 64
	// never, whatever the crew).
	share int
	// need is the crew the stand-down under way counted on: 1 where the
	// share pays for the plain walk, more where only a pool pays.
	need    int
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
// they stand down when a probe window has found the arenas busy enough
// for the crew a stretch would get.
func (e *Engine) turn() bool {
	d := &e.sched.duty
	if d.down {
		e.standUp()
		return true
	}
	d.need = e.needed()
	d.probe(e.cycle)
	if d.need == 0 || !e.hire() {
		d.stretch = minStretch
		return true
	}
	e.standDown()
	return false
}

// needed is the smallest crew for which the probe window just ended pays
// a stand-down, 0 if no crew the host has free now does: a crew of n
// stands down at share/n of the arena elements active, since the gated
// walk's cost grows with that share and a pooled walk's falls with its
// crew. A share above 64 never stands down.
func (e *Engine) needed() int {
	d := &e.sched.duty
	if d.size == 0 || d.share > 64 {
		return 0
	}
	// In floating point: a fast-forward may have stretched the window
	// arbitrarily far.
	busy := float64(d.busy) * 64
	all := float64(d.share) * float64(e.cycle-d.from) * float64(d.size)
	for n := 1; n <= e.crewSize(helpers.Load()); n++ {
		if busy*float64(n) >= all {
			return n
		}
	}
	return 0
}

// standDown pays every parked component and arena element up to the
// current cycle, wakes them all — the registry's as wakes a SchedTrace
// sees — switches the arm hooks off and starts a stretch of plain
// cycles, on the crew turn has hired.
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

// helpers is the process-wide budget of the goroutines that simulate
// beside their callers': the stand-down pools' helpers, the point
// helpers a sweep runs a batch's points on beside its workers and the
// fork helpers a sweep point measures its replicates on (TakeHelpers),
// GOMAXPROCS−1 at most together, so that platforms running side by side
// (serve sessions, sweep points, a point's forks) never put more
// spinners on the host than it has processors.
var helpers atomic.Int32

// TakeHelpers takes up to want helpers from the process-wide budget and
// returns how many it took: as many as it has free, never more than
// would bring all held past GOMAXPROCS−1, none where want < 1. It never
// blocks. The caller gives them back with ReturnHelpers once the
// goroutines it ran on them have exited.
func TakeHelpers(want int) int {
	for {
		held := helpers.Load()
		n := min(want, runtime.GOMAXPROCS(0)-1-int(held))
		if n <= 0 {
			return 0
		}
		if helpers.CompareAndSwap(held, held+int32(n)) {
			return n
		}
	}
}

// ReturnHelpers gives n helpers TakeHelpers took back to the budget.
func ReturnHelpers(n int) { helpers.Add(-int32(n)) }

// crewSize is how many workers a pooled stretch could have while held
// helpers are taken: one per span arena elements, at most GOMAXPROCS,
// the caller's goroutine and as many helpers as the budget has free.
func (e *Engine) crewSize(held int32) int {
	d := &e.sched.duty
	procs := runtime.GOMAXPROCS(0)
	return max(1, min(procs, d.size/d.span, procs-int(held)))
}

// hire hands the stretch under way to a crew of crewSize workers. It
// keeps none and reports false where that is fewer than the stand-down
// needs; a crew of one walks the stretch plain.
func (e *Engine) hire() bool {
	d := &e.sched.duty
	n := 1 + TakeHelpers(e.crewSize(0)-1)
	if n < d.need {
		ReturnHelpers(n - 1)
		return false
	}
	if n > 1 {
		d.crew = newPool(n)
		d.crew.enter(e)
	}
	return true
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
	ReturnHelpers(len(d.crew.shards) - 1)
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
