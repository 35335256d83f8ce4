package link

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/probe"
)

// Arena is the dense wire store of a platform: every flit link and
// credit link lives by value in one of two contiguous slices, pair i
// being flit link i and its credit links, one per virtual channel; what
// the wires share lives here once. No wire needs evaluation — a faulted
// one included, as its fault acts on Send and SetFault — so the arena
// is no engine component: the platform snapshots it and attaches its
// links to the bus.
type Arena struct {
	name    string
	vcs     int
	links   []Link
	credits []CreditLink // pair i owns credits[i*vcs : (i+1)*vcs]
	names   []string     // per flit link
	cnames  []string     // per credit link
	clock   func() uint64
	onDrop  func(f *flit.Flit, cycle uint64)
	send    *func(elem int)
	probes  []*probe.Probe // per flit link; nil until one is set
}

// NewArena returns an empty wire arena with room for n wire pairs of
// vcs virtual channels each. The capacity is exact: the platform knows
// its wire count at build time, and a fixed backing array keeps the
// handles NewPair returns stable.
func NewArena(name string, n, vcs int) *Arena {
	return &Arena{
		name:    name,
		vcs:     vcs,
		links:   make([]Link, 0, n),
		credits: make([]CreditLink, 0, n*vcs),
		names:   make([]string, 0, n),
		cnames:  make([]string, 0, n*vcs),
	}
}

// NewPair appends a flit link and its reverse credit links, one per
// virtual channel, to the arena as one element and returns their
// handles, which stay valid for the arena's lifetime. Channel 0's
// credit link is named creditName, channel v's "creditName.vcv".
// Exceeding the declared capacity is a construction bug and panics
// (growth would move every previously handed-out wire).
func (a *Arena) NewPair(linkName, creditName string) (*Link, []*CreditLink) {
	if len(a.links) == cap(a.links) {
		panic(fmt.Sprintf("link: arena %s capacity %d exceeded", a.name, cap(a.links)))
	}
	a.links = append(a.links, Link{vis: [2]uint64{never, never}, arena: a, elem: int32(len(a.links))})
	a.names = append(a.names, linkName)
	crs := make([]*CreditLink, a.vcs)
	for v := range crs {
		name := creditName
		if v > 0 {
			name = fmt.Sprintf("%s.vc%d", creditName, v)
		}
		a.credits = append(a.credits, CreditLink{arena: a, elem: int32(len(a.credits))})
		a.cnames = append(a.cnames, name)
		crs[v] = &a.credits[len(a.credits)-1]
	}
	return &a.links[len(a.links)-1], crs
}

// SetClock installs the cycle reader (the engine's counter) the wires'
// derived counters and snapshots are read at between runs; unset, they
// read cycle 0.
func (a *Arena) SetClock(clock func() uint64) { a.clock = clock }

func (a *Arena) now() uint64 {
	if a.clock == nil {
		return 0
	}
	return a.clock()
}

// SetDropHandler installs the callback invoked with any flit a wire
// loses (overrun drop) and the cycle it is lost in — the pooled
// datapath's fault-drop release path; unset, dropped flits go to the
// garbage collector.
func (a *Arena) SetDropHandler(h func(f *flit.Flit, cycle uint64)) { a.onDrop = h }

// SetHooks installs the gated scheduler's wake hook: putting a flit on
// wire i calls *send(i) unless *send is nil (engine.ArmTable.Hook).
// Credits wake nobody.
func (a *Arena) SetHooks(send *func(elem int)) { a.send = send }

// Shift moves every wire along a timeline that jumped by delta cycles
// without executing any (Engine.OnReset): the stamps move along, the
// slots swap when the parity flipped, and the readers are told to look
// where their values now are. CYCLES and HELD keep counting; a fault
// controller's mode waits for its first Tick on the new timeline.
func (a *Arena) Shift(delta uint64) {
	odd := delta&1 != 0
	for i := range a.links {
		l := &a.links[i]
		if odd {
			l.slot[0], l.slot[1], l.vis[0], l.vis[1] = l.slot[1], l.slot[0], l.vis[1], l.vis[0]
		}
		for p := range l.vis {
			if l.vis[p] != never {
				l.vis[p] += delta
			}
			if l.slot[p] != nil && l.arrived[p] != nil {
				*l.arrived[p] = 1
			}
		}
		l.cycleBase += delta
		if fs := l.fs; fs != nil {
			fs.heldAt += delta
			if fs.until != never {
				fs.until = 0
			}
		}
	}
	for i := range a.credits {
		c := &a.credits[i]
		if c.at += delta; odd {
			c.n[0], c.n[1] = c.n[1], c.n[0]
		}
		for p, n := range c.n {
			if n != 0 && c.arrived[p] != nil {
				*c.arrived[p] = 1
			}
		}
	}
}

// Drain releases every flit wire's in-flight state through release
// (end-of-run reclamation).
func (a *Arena) Drain(release func(*flit.Flit)) {
	for i := range a.links {
		a.links[i].Drain(release)
	}
}
