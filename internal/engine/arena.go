// Struct-of-arrays component arenas.
//
// The kernel's generic schedule walks []Component — flexible, but every
// call is an itab dispatch on a pointer that may land anywhere on the
// heap. At the 1k-node scale the platform targets, the high-population
// component type (switches) dominates that walk, and it is
// homogeneous: same concrete type, same Tick body, thousands of
// instances. An Arena stores such a population as one dense value slice
// and exposes batch evaluation over index ranges, so the inner loop is
// a devirtualized, cache-linear walk over contiguous memory instead of
// len(population) interface calls.
//
// Placement rule: a type goes into an arena when its population grows
// with the platform (switches — O(nodes); the wires grow too, but their
// writers update them and they are no component); it stays on the
// interface path when it is low-population and heterogeneous (traffic
// devices, watchdog, fault controller, collector — O(1) or O(endpoints)
// instances whose dispatch cost is noise). Arenas register through RegisterArena and appear in
// the schedule as ONE component each, so every consumer of the registry
// — the plain walk, Lookup — keeps working unchanged. Three
// schedulers look inside: the pooled walk shards an arena's index
// range across workers instead of assigning it whole (pool.go), the
// gated walk parks and wakes its elements one by one (quiesce.go),
// and the event calendar of internal/tlm gives every element its own
// processes, as a SystemC kernel would each module.
package engine

// Arena is a dense, homogeneous population of sub-devices evaluated by
// range loops. Tick (the Component method) must be equivalent to
// TickRange over the full range [0, Len()); the pooled walk partitions
// [0, Len()) into contiguous per-worker spans, so elements must be
// independent within a cycle, exactly like distinct registered
// components are.
type Arena interface {
	Component
	// Len returns the element count. It must stay constant once the
	// engine has run; the pool re-reads it only when the registration
	// count changes, the gates never.
	Len() int
	// TickRange ticks elements [lo, hi) for the given cycle.
	TickRange(lo, hi int, cycle uint64)

	// The element-level quiet contract: what the gated walk needs to
	// schedule the elements one by one (quiesce.go). TickList ticks
	// exactly the listed elements, in list order. QuietList is the quiet
	// report the engine runs after the cycle's Ticks: it appends to
	// quiet, and returns, the position in idx of every listed element
	// with nothing to do from the next cycle on until input arms it —
	// Quiescable's NextWake without a wake cycle, answered from the
	// element's own state alone. ElemSkipIdle is Quiescable's SkipIdle
	// for element i. The arena keeps no scheduling state of its own:
	// Tick stays the full-population walk for kernels that do not gate
	// per element.
	TickList(idx []int, cycle uint64)
	QuietList(idx []int, cycle uint64, quiet []int) []int
	ElemSkipIdle(i int, from, n uint64)
}

// RegisterArena adds an arena to the evaluation schedule. The arena
// occupies one slot in the component registry (its ComponentName must
// be unique like any component's); the pooled walk additionally shards
// its index range across workers.
func (e *Engine) RegisterArena(a Arena) error {
	if a == nil {
		return errArena("nil arena")
	}
	if a.Len() < 0 {
		return errArena("negative arena length")
	}
	if err := e.Register(a); err != nil {
		return err
	}
	e.arenas = append(e.arenas, a)
	return nil
}

// MustRegisterArena is RegisterArena for construction paths where a
// failure is a programming error.
func (e *Engine) MustRegisterArena(a Arena) {
	if err := e.RegisterArena(a); err != nil {
		panic(err)
	}
}

// Arenas returns the registered arenas in registration order (copied).
func (e *Engine) Arenas() []Arena {
	return append([]Arena(nil), e.arenas...)
}

// arenaOf returns the position in the arena list of a component that
// was registered through RegisterArena, or -1. The list is a handful of
// entries, so the linear scan is cheaper than a map and runs only when
// shards, gates or arm hooks are set up.
func (e *Engine) arenaOf(c Component) int {
	for k, a := range e.arenas {
		if Component(a) == c {
			return k
		}
	}
	return -1
}

type errArena string

func (e errArena) Error() string { return "engine: " + string(e) }

// arenaSpan is one worker's contiguous slice of an arena's index range.
type arenaSpan struct {
	a      Arena
	lo, hi int
}

// dealSpans partitions each arena's [0, Len()) into len(out) contiguous
// spans, one per worker, appending to out[w]. Remainder elements go to
// the lowest-numbered workers so span sizes differ by at most one.
func dealSpans(arenas []Arena, out [][]arenaSpan) {
	w := len(out)
	for _, a := range arenas {
		n := a.Len()
		size, rem := n/w, n%w
		lo := 0
		for i := 0; i < w; i++ {
			hi := lo + size
			if i < rem {
				hi++
			}
			if hi > lo {
				out[i] = append(out[i], arenaSpan{a: a, lo: lo, hi: hi})
			}
			lo = hi
		}
	}
}
