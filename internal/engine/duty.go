// The duty cycle: a gate that stands down, and a run that hires a crew.
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
// Both walks are a crew's (pool.go): a gated engine hires one for each
// run — a worker per poolSpan arena elements, no more than the
// processors it may count on (procs: GOMAXPROCS, capped at the host's),
// and no more helper goroutines than a process-wide budget of procs−1
// has free, which platforms running side by side, sweep points and
// their fork crews share. The crew walks the gated cycles over its
// share of the gates (quiesce.go, crewGates) and the stretches plainly,
// so the stand-down compares the two walks on the same crew, and the
// share is one constant whatever its size. A crew of one — a platform
// under 2·poolSpan elements, a one-processor host, a budget held
// elsewhere, a run with a SchedTrace — is the caller's goroutine alone:
// it starts no goroutine and meets no gate. The helpers are taken when
// the run begins and given back when it ends, goroutines included: none
// outlives a run. What a crew is built from — its shards, spans, shares
// of the gates and arm-table routes — stays for the next run of its
// size, and a crew of each size is kept: a run whose helpers come and go
// with the budget re-derives the lists, and builds nothing.
//
// None of it shows in results. The plain walk is the reference every
// gated walk and every crew is held to; a stand-down settles every debt
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
// 1.08–2.1× at 0.15–0.44. On a crew of two (EXPERIMENTS.md, "The gate
// shards") a mesh breaks even at 0.52–0.65 and a butterfly of 31-port
// switches near 0.41. The span is
// where a pool parts from the plain walk on a busy mesh, with margin
// (EXPERIMENTS.md, "Busy stretches on a pool"): two workers lose at 8
// switches each, break even between 18 and 32, and win 1.5–1.8× from
// 50 on.
const (
	probeCycles    = 64
	minStretch     = 256
	maxStretch     = 8192
	standDownShare = 33 // sixty-fourths of the arena elements, on average over a window
	poolSpan       = 64 // arena elements per worker of a crew, at least
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
	// span is a crew's arena elements per worker, at least; a rig may
	// lower it (to 1 at the least).
	span int
	// crew, when a rig sets it, is the size of every run's crew, hired
	// whatever the platform's size, the host's processors and the
	// budget: its helpers come from none.
	crew int
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
// they stand down when a probe window has found the arenas busy enough.
func (e *Engine) turn() bool {
	d := &e.sched.duty
	if d.down {
		e.standUp()
		return true
	}
	down := e.busyEnough()
	d.probe(e.cycle)
	if !down {
		d.stretch = minStretch
		return true
	}
	e.standDown()
	return false
}

// busyEnough reports whether the probe window just ended pays a
// stand-down: its arenas kept share sixty-fourths of their elements
// active on average. A share above 64 never stands down.
func (e *Engine) busyEnough() bool {
	d := &e.sched.duty
	if d.size == 0 || d.share > 64 {
		return false
	}
	// In floating point: a fast-forward may have stretched the window
	// arbitrarily far.
	return float64(d.busy)*64 >= float64(d.share)*float64(e.cycle-d.from)*float64(d.size)
}

// standDown pays every parked component and arena element up to the
// current cycle, wakes them all — the registry's as wakes a SchedTrace
// sees — switches the arm hooks off and starts a stretch of plain
// cycles on the run's crew.
func (e *Engine) standDown() {
	s := e.sched
	for i, on := range s.coord.reg.active {
		if !on {
			e.logSched(false, e.cycle, i)
		}
	}
	s.restart(e, e.cycle)
	e.armHooks(false)
	d := &s.duty
	d.down, d.next = true, e.cycle+d.stretch
	d.stretch = min(2*d.stretch, maxStretch)
}

// standUp ends a stand-down — its stretch ran out or the timeline moved
// — so whatever comes next finds the hooks on and a probe window open.
// The gates are already everything-active; their first quiet report
// parks the idle again.
func (e *Engine) standUp() {
	if d := &e.sched.duty; d.down {
		d.down = false
		d.probe(e.cycle)
		e.armHooks(true)
	}
}

// StandingDown reports whether the gates stand down at the current cycle:
// the engine walks the plain schedule, hooks off, until its next probe.
func (e *Engine) StandingDown() bool { return e.sched != nil && e.sched.duty.down }

// procs is the processors a crew may count on: GOMAXPROCS, but no more
// than the host has. A CPU quota the runtime does not see is not
// counted; there a crew may still outnumber its processors.
func procs() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// helpers is the process-wide budget of the goroutines that simulate
// beside their callers': the crews' helpers, the point
// helpers a sweep runs a batch's points on beside its workers and the
// fork helpers a sweep point measures its replicates on (TakeHelpers),
// procs()−1 at most together, so that platforms running side by side
// (serve sessions, sweep points, a point's forks) never put more
// spinners on the host than it has processors.
var helpers atomic.Int32

// TakeHelpers takes up to want helpers from the process-wide budget and
// returns how many it took: as many as it has free, never more than
// would bring all held past procs()−1 — GOMAXPROCS−1, or fewer where
// the host has fewer processors — none where want < 1. It never
// blocks. The caller gives them back with ReturnHelpers once the
// goroutines it ran on them have exited.
func TakeHelpers(want int) int {
	for {
		held := helpers.Load()
		n := min(want, procs()-1-int(held))
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

// crewSize is how many workers a crew could have while held helpers
// are taken: one per span arena elements, at most procs(), the caller's
// goroutine and as many helpers as the budget has free.
func (e *Engine) crewSize(held int32) int {
	d := &e.sched.duty
	n := procs()
	return max(1, min(n, d.size/d.span, n-int(held)))
}

// hire hands the run about to start to a crew of crewSize workers — one,
// the caller's goroutine alone, unless the arenas hold at least two
// spans and the budget has a helper free — or of one where a
// SchedTrace, whose log follows one walk, is installed. A rig's crew
// size (duty.crew) replaces crewSize and the budget. A crew of each size
// is built once and kept: the workers' lists are re-derived from the
// gates' flags only when the run's crew is not the last run's, or the
// registrations changed. Its goroutines start here.
func (e *Engine) hire() {
	s := e.sched
	n := 1
	switch {
	case e.strace != nil: // a crew of one: the log is one goroutine's
	case s.duty.crew > 0:
		n = s.duty.crew
	case s.duty.size >= 2*s.duty.span:
		n = 1 + TakeHelpers(e.crewSize(0)-1)
	}
	p := s.pools[n]
	if p == nil {
		p = newPool(n)
		s.pools[n] = p
	}
	if p.deal(e) || p != s.pool {
		s.pool = p
		p.relist(s)
	}
	for _, t := range e.tables {
		t.route(p)
	}
	p.spawn()
	if !s.duty.down {
		e.armHooks(true)
	}
}

// dismiss ends the run's crew: its goroutines exit and its helpers go
// back to the budget. Its lists stay for the next run.
func (e *Engine) dismiss() {
	s := e.sched
	p := s.pool
	if len(p.shards) == 1 {
		return
	}
	p.gate.release(cmdStop)
	p.exited.Wait()
	if s.duty.crew == 0 {
		ReturnHelpers(len(p.shards) - 1)
	}
}

// armHooks switches the hook of every arm table: while the gates stand
// down everything is awake, and a Send calls nothing.
func (e *Engine) armHooks(on bool) {
	for _, t := range e.tables {
		t.hook = nil
		if on {
			t.hook = t.queued
		}
	}
}
