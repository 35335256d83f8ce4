// Deterministic snapshot/restore for whole platforms (DESIGN.md §13).
//
// A snapshot is the state framing of internal/state: a header (magic,
// codec version, platform name, section count) followed by one section
// per stateful layer, walked in build order. Section bodies hold only
// logical state — committed wires, buffered flit images, generator and
// arbiter progress, statistics — never kernel scheduling ephemera, so
// one snapshot restores into any kernel configuration: sequential or
// parallel, gated or not. Restore validates every section name and
// type against the built platform and fails loudly on drift; a restored
// platform continues bit-identically with an uninterrupted run.
package platform

import (
	"fmt"
	"io"
	"slices"

	"nocemu/internal/engine"
	"nocemu/internal/state"
)

// Section type tags. The tag names the layer's serialization schema;
// renaming one is a codec break and needs a Version bump.
const (
	secEngine    = "engine"
	secPool      = "pool"
	secTG        = "tg"
	secTR        = "tr"
	secSwitchfab = "switchfab"
	secWires     = "link"
	secProbe     = "probe"
	secWatchdog  = "watchdog"
	secFault     = "fault"
)

// section is one entry of the platform's section walk: the frame's name
// and type, and the Stateful behind it.
type section struct {
	name, typ string
	part      engine.Stateful
}

// snapshotPlan returns the platform's section walk in build order. The
// two arenas are their own sections: element count(s), then every
// element in index order. captureInit stores it as p.plan, so it is
// built once per construction shape, not per snapshot or restore.
func (p *Platform) snapshotPlan() []section {
	plan := []section{{"engine", secEngine, p.eng}, {"pool", secPool, p.pool}}
	for _, tg := range p.tgs {
		plan = append(plan, section{tg.ComponentName(), secTG, tg})
	}
	for _, tr := range p.trs {
		plan = append(plan, section{tr.ComponentName(), secTR, tr})
	}
	plan = append(plan, section{"switches", secSwitchfab, p.swArena}, section{"wires", secWires, p.wires})
	if p.collector != nil {
		plan = append(plan, section{"probe", secProbe, p.collector})
	}
	if p.wd != nil {
		plan = append(plan, section{"watchdog", secWatchdog, p.wd})
	}
	for _, fc := range p.faults {
		plan = append(plan, section{fc.ComponentName(), secFault, fc})
	}
	return plan
}

// Snapshot serializes the platform's complete logical state. Call it
// only between runs (never mid-cycle). The platform keeps running
// unperturbed afterwards.
func (p *Platform) Snapshot(out io.Writer) error {
	if _, err := out.Write(p.AppendSnapshot(nil)); err != nil {
		return fmt.Errorf("platform %s: snapshot: %w", p.cfg.Name, err)
	}
	return nil
}

// SnapshotBytes is Snapshot into memory. It never fails; the error is
// Snapshot's.
func (p *Platform) SnapshotBytes() ([]byte, error) { return p.AppendSnapshot(nil), nil }

// AppendSnapshot appends the snapshot to b: the header and every
// section frame go into one buffer, grown up front by the init
// snapshot's length, and every body is saved through one reused writer.
func (p *Platform) AppendSnapshot(b []byte) []byte {
	b = state.AppendHeader(slices.Grow(b, len(p.initSnap)), p.cfg.Name, len(p.plan))
	var body state.Writer
	for _, s := range p.plan {
		body.Reset()
		s.part.SaveState(&body)
		b = state.AppendSection(b, s.name, s.typ, body.Bytes())
	}
	return b
}

// Restore is RestoreBytes from a stream.
func (p *Platform) Restore(in io.Reader) error {
	b, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("platform %s: restore: %w", p.cfg.Name, err)
	}
	return p.RestoreBytes(b)
}

// RestoreBytes loads a snapshot into the platform, replacing all
// logical state, in one pass over b: the framing is checked first, then
// each section is matched in place against the plan and decoded by its
// component, which keeps no reference to b. The snapshot must come from
// a platform of the same name and construction shape (topology,
// devices, tracing, watchdog, fault campaigns); the kernel and gating
// configuration may differ — that is the point. A framing error leaves
// the platform untouched; any later error leaves its state undefined,
// so rebuild it (or FullReset it).
func (p *Platform) RestoreBytes(b []byte) error {
	f, err := state.ParseSnapshot(b)
	if err != nil {
		return fmt.Errorf("platform %s: restore: %w", p.cfg.Name, err)
	}
	if string(f.Platform) != p.cfg.Name {
		return fmt.Errorf("platform %s: restore: snapshot is of platform %q", p.cfg.Name, f.Platform)
	}
	if f.Count != len(p.plan) {
		return fmt.Errorf("platform %s: restore: snapshot has %d sections, platform needs %d",
			p.cfg.Name, f.Count, len(p.plan))
	}
	var r state.Reader
	for i, s := range p.plan {
		fr := f.Next()
		if string(fr.Name) != s.name || string(fr.Type) != s.typ {
			return fmt.Errorf("platform %s: restore: section %d is %s/%s, want %s/%s",
				p.cfg.Name, i, fr.Name, fr.Type, s.name, s.typ)
		}
		r.Reset(fr.Body)
		if err := s.part.LoadState(&r); err != nil {
			return fmt.Errorf("platform %s: restore section %s: %w", p.cfg.Name, s.name, err)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("platform %s: restore section %s: %w", p.cfg.Name, s.name, err)
		}
	}
	if err := p.audit(); err != nil {
		return fmt.Errorf("platform %s: restore: %w", p.cfg.Name, err)
	}
	return nil
}

// captureInit rebuilds the section walk and the cycle-zero snapshot
// backing FullReset; construction and every post-build attachment end
// with it.
func (p *Platform) captureInit() {
	p.plan = p.snapshotPlan()
	p.initSnap = p.AppendSnapshot(nil)
}

// FullReset rewinds the platform to its as-built cycle-zero state by
// restoring the snapshot captured when construction finished. A fully
// reset platform is indistinguishable from a freshly built one.
func (p *Platform) FullReset() error {
	if p.initSnap == nil {
		return fmt.Errorf("platform %s: no init snapshot", p.cfg.Name)
	}
	return p.RestoreBytes(p.initSnap)
}

// ForkSeed derives the reseed value Fork applies to the TG at the given
// endpoint in fork i (fork 0 is unsalted and keeps the snapshot's rng
// state). Exported so cold-run references can replicate a fork's
// divergence point exactly.
func ForkSeed(platformSeed uint32, ep uint16, fork int) uint32 {
	s := platformSeed*2654435761 ^ (uint32(fork)*0x9E3779B9 + uint32(ep) + 1)
	if s == 0 {
		s = 1
	}
	return s
}

// ReseedFork makes the platform fork i of the state it is in: fork 0 is
// the exact continuation, fork i > 0 reseeds every TG's random registers
// with ForkSeed. What Fork does to each platform it builds; a caller that
// runs its forks one after the other restores one platform and calls
// this instead.
func (p *Platform) ReseedFork(i int) {
	if i > 0 {
		for _, tg := range p.tgs {
			tg.Reseed(ForkSeed(p.cfg.Seed, uint16(tg.Injector().Endpoint()), i))
		}
	}
}

// Fork snapshots the platform once and builds n independent platforms
// restored from it — warm starts that share the paid-for warm-up.
// Post-build attachments (watchdog, fault campaigns) are replicated.
// Fork 0 is an exact continuation; each fork i > 0 reseeds every TG's
// random registers with ForkSeed, so the forks explore divergent
// futures from the same warmed-up state.
func (p *Platform) Fork(n int) ([]*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("platform %s: fork %d", p.cfg.Name, n)
	}
	snap, err := p.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	forks := make([]*Platform, 0, n)
	for i := 0; i < n; i++ {
		f, err := Build(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err)
		}
		if p.wd != nil {
			if _, err := f.AttachWatchdog(p.wdPatience); err != nil {
				return nil, fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err)
			}
		}
		for _, specs := range p.faultSpecs {
			if _, err := f.AddFaults(specs); err != nil {
				return nil, fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err)
			}
		}
		if err := f.RestoreBytes(snap); err != nil {
			return nil, fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err)
		}
		f.ReseedFork(i)
		forks = append(forks, f)
	}
	return forks, nil
}

// SaveState serializes the watchdog's progress tracker (the patience is
// attachment configuration).
func (w *Watchdog) SaveState(sw *state.Writer) {
	sw.U64(w.lastRecv)
	sw.U64(w.lastChange)
	sw.Bool(w.stalled)
	sw.U64(w.stalledAt)
}

// LoadState restores the watchdog's progress tracker.
func (w *Watchdog) LoadState(r *state.Reader) error {
	w.lastRecv = r.U64()
	w.lastChange = r.U64()
	w.stalled = r.Bool()
	w.stalledAt = r.U64()
	return r.Err()
}
