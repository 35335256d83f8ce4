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
	"bytes"
	"fmt"
	"io"

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

// snapshotPlan returns the platform's section walk: names, types, and
// the Stateful behind each, in build order. The two arenas are their
// own sections: element count(s), then every element in index order.
func (p *Platform) snapshotPlan() (names, types []string, parts []engine.Stateful) {
	add := func(name, typ string, s engine.Stateful) {
		names = append(names, name)
		types = append(types, typ)
		parts = append(parts, s)
	}
	add("engine", secEngine, p.eng)
	add("pool", secPool, p.pool)
	for _, tg := range p.tgs {
		add(tg.ComponentName(), secTG, tg)
	}
	for _, tr := range p.trs {
		add(tr.ComponentName(), secTR, tr)
	}
	add("switches", secSwitchfab, p.swArena)
	add("wires", secWires, p.wires)
	if p.collector != nil {
		add("probe", secProbe, p.collector)
	}
	if p.wd != nil {
		add("watchdog", secWatchdog, p.wd)
	}
	for _, fc := range p.faults {
		add(fc.ComponentName(), secFault, fc)
	}
	return names, types, parts
}

// Snapshot serializes the platform's complete logical state. Call it
// only between runs (never mid-cycle). The platform keeps running
// unperturbed afterwards.
func (p *Platform) Snapshot(out io.Writer) error {
	names, types, parts := p.snapshotPlan()
	if err := state.WriteHeader(out, p.cfg.Name, len(parts)); err != nil {
		return fmt.Errorf("platform %s: snapshot: %w", p.cfg.Name, err)
	}
	for i, part := range parts {
		w := state.NewWriter()
		part.SaveState(w)
		s := state.Section{Name: names[i], Type: types[i], Body: w.Bytes()}
		if err := state.WriteSection(out, s); err != nil {
			return fmt.Errorf("platform %s: snapshot section %s: %w", p.cfg.Name, names[i], err)
		}
	}
	return nil
}

// SnapshotBytes is Snapshot into memory.
func (p *Platform) SnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore loads a snapshot into the platform, replacing all logical
// state. The snapshot must come from a platform of the same name and
// construction shape (topology, devices, tracing, watchdog, fault
// campaigns); the kernel and gating configuration may differ — that is
// the point. On error the platform state is undefined; rebuild it.
func (p *Platform) Restore(in io.Reader) error {
	name, sections, err := state.ReadSnapshot(in)
	if err != nil {
		return fmt.Errorf("platform %s: restore: %w", p.cfg.Name, err)
	}
	if name != p.cfg.Name {
		return fmt.Errorf("platform %s: restore: snapshot is of platform %q", p.cfg.Name, name)
	}
	names, types, parts := p.snapshotPlan()
	if len(sections) != len(parts) {
		return fmt.Errorf("platform %s: restore: snapshot has %d sections, platform needs %d",
			p.cfg.Name, len(sections), len(parts))
	}
	for i, s := range sections {
		if s.Name != names[i] || s.Type != types[i] {
			return fmt.Errorf("platform %s: restore: section %d is %s/%s, want %s/%s",
				p.cfg.Name, i, s.Name, s.Type, names[i], types[i])
		}
		r := state.NewReader(s.Body)
		if err := parts[i].LoadState(r); err != nil {
			return fmt.Errorf("platform %s: restore section %s: %w", p.cfg.Name, s.Name, err)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("platform %s: restore section %s: %w", p.cfg.Name, s.Name, err)
		}
	}
	return nil
}

// RestoreBytes is Restore from memory.
func (p *Platform) RestoreBytes(b []byte) error {
	return p.Restore(bytes.NewReader(b))
}

// captureInit refreshes the cycle-zero snapshot backing FullReset.
func (p *Platform) captureInit() error {
	snap, err := p.SnapshotBytes()
	if err != nil {
		return err
	}
	p.initSnap = snap
	return nil
}

// FullReset rewinds the platform to its as-built cycle-zero state —
// component state included, unlike Engine.Reset — by restoring the
// snapshot captured when construction finished. A fully reset platform
// is indistinguishable from a freshly built one.
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
// futures from the same warmed-up state. The caller owns the returned
// platforms (Close them when Workers > 0).
func (p *Platform) Fork(n int) ([]*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("platform %s: fork %d", p.cfg.Name, n)
	}
	snap, err := p.SnapshotBytes()
	if err != nil {
		return nil, err
	}
	forks := make([]*Platform, 0, n)
	fail := func(err error) ([]*Platform, error) {
		for _, f := range forks {
			f.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		f, err := Build(p.cfg)
		if err != nil {
			return fail(fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err))
		}
		if p.wd != nil {
			if _, err := f.AttachWatchdog(p.wdPatience); err != nil {
				f.Close()
				return fail(fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err))
			}
		}
		for _, specs := range p.faultSpecs {
			if _, err := f.AddFaults(specs); err != nil {
				f.Close()
				return fail(fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err))
			}
		}
		if err := f.RestoreBytes(snap); err != nil {
			f.Close()
			return fail(fmt.Errorf("platform %s: fork %d: %w", p.cfg.Name, i, err))
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
