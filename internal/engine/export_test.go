package engine

import "math/rand/v2"

// StandDownAlways makes a gated engine stand its gates down
// after every probe window, however idle: the gated-standing-down walk
// of the contract tests (walks_test.go).
func StandDownAlways(e *Engine) { e.sched.duty.share = 0 }

// CrewAlways keeps a gated engine's gates up for good and hires a crew
// for every run, one worker per arena element where the host and the
// budget have them: the gated-crew walk of the contract tests
// (walks_test.go, crew_test.go). A platform of any size then walks its
// gated cycles on a crew.
func CrewAlways(e *Engine) { e.sched.duty.share, e.sched.duty.span = 65, 1 }

// CrewOf makes every run of a gated engine hire a crew of exactly n
// workers, whatever the platform's size and the host's processors —
// more workers than processors spin and yield (spinYield) — and none
// of them from the helper budget. n = 1 is the crew of one: the
// caller's goroutine alone, with no helper and no gate. The gates stand
// down as they would on a crew the budget paid for.
func CrewOf(e *Engine, n int) { e.sched.duty.crew = n }

// Order is how a permuted walk (PermutedRun) orders the ticks of a
// cycle.
type Order int

const (
	// Reversed ticks the registry backwards, every arena's elements
	// last to first.
	Reversed Order = iota
	// Shuffled draws a fresh seeded permutation of the ticks every
	// cycle.
	Shuffled
	// Interleaved ticks every arena element beside the endpoints a crew
	// of one worker per element would deal to it, as the pool deals
	// them — the element first in even cycles, last in odd ones.
	Interleaved
)

// unit is one tick of a permuted walk: component c, or element i of
// arena a.
type unit struct {
	c Component
	a Arena
	i int
}

func (u unit) tick(c uint64) {
	if u.a != nil {
		u.a.TickRange(u.i, u.i+1, c)
	} else {
		u.c.Tick(c)
	}
}

// PermutedRun advances an ungated engine by up to budget cycles on a walk
// that ticks every component and every single arena element of each
// cycle in the order o picks, seeded by seed, then the SerialTickers in
// registration order. With poll it stops as RunUntil does. It is the
// order-independence claim of the kernel made a test: no component
// reads in a cycle what another wrote in it, so every order must leave
// the plain walk's bytes.
func PermutedRun(e *Engine, budget uint64, poll bool, o Order, seed uint64) (executed uint64, stopped bool) {
	if e.sched != nil {
		panic("engine: a permuted walk replaces the plain walk of an ungated engine")
	}
	var units []unit
	var serial, plain []Component
	var slots []int
	for i, c := range e.components {
		if _, ok := c.(SerialTicker); ok {
			serial = append(serial, c)
		} else if e.arenaOf(c) < 0 {
			plain = append(plain, c)
			slots = append(slots, i)
		}
	}
	var groups [][]unit
	switch o {
	case Reversed:
		for i := len(e.components) - 1; i >= 0; i-- {
			c := e.components[i]
			if _, ok := c.(SerialTicker); ok {
				continue
			}
			if k := e.arenaOf(c); k >= 0 {
				for j := e.arenas[k].Len() - 1; j >= 0; j-- {
					units = append(units, unit{a: e.arenas[k], i: j})
				}
			} else {
				units = append(units, unit{c: c})
			}
		}
	case Shuffled:
		for _, c := range plain {
			units = append(units, unit{c: c})
		}
		for _, a := range e.arenas {
			for j := 0; j < a.Len(); j++ {
				units = append(units, unit{a: a, i: j})
			}
		}
	case Interleaved:
		n := 1
		for _, a := range e.arenas {
			n = max(n, a.Len())
		}
		p := &pool{shards: make([][]Component, n), spans: make([][]arenaSpan, n), owner: make([]int32, len(e.components))}
		p.dealRuns(e.components, slots)
		dealSpans(e.arenas, p.spans)
		groups = make([][]unit, n)
		for w := range groups {
			for _, s := range p.spans[w] {
				for j := s.lo; j < s.hi; j++ {
					groups[w] = append(groups[w], unit{a: s.a, i: j})
				}
			}
			for _, c := range p.shards[w] {
				groups[w] = append(groups[w], unit{c: c})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(o)))
	poll = poll && len(e.stoppers)+len(e.aborters) > 0
	for ; executed < budget; executed++ {
		if poll {
			if stop, byStopper := e.pollStop(); stop {
				stopped = byStopper
				break
			}
		}
		c := e.cycle
		switch o {
		case Shuffled:
			rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
			fallthrough
		case Reversed:
			for _, u := range units {
				u.tick(c)
			}
		case Interleaved:
			for _, g := range groups {
				for k := range g {
					if c&1 == 1 {
						k = len(g) - 1 - k
					}
					g[k].tick(c)
				}
			}
		}
		for _, s := range serial {
			s.Tick(c)
		}
		e.cycle++
	}
	return executed, stopped
}
