// Snapshot support for the traffic receptors (DESIGN.md §13).
//
// The TR section holds its counters, the analysis state of whichever
// flavor was built (histograms and inter-arrival tracking for the
// stochastic receptor; Welford accumulators, the head-inject table, the
// flow table and the congestion counter for the trace-driven one), the
// recorded arrival trace when trace recording is on, and the network
// interface. The head-inject map is written sorted by packet ID. The
// flow table is written in the layout of the three per-source maps it
// replaced — latency floors, accumulators, and (TrackLast only) last
// latencies — each section listing every source in order. The receptor
// flavor is construction state: restoring a snapshot of the other
// flavor fails loudly.
package receptor

import (
	"fmt"
	"sort"

	"nocemu/internal/flit"
	"nocemu/internal/state"
	"nocemu/internal/trace"
)

// SaveState serializes the receptor.
func (t *TR) SaveState(w *state.Writer) {
	w.String(string(t.cfg.Mode))
	w.Bool(t.recorded != nil)
	t.ej.SaveState(w)
	w.U64(t.cfg.ExpectPackets)
	w.U64(t.packets)
	w.U64(t.flits)
	w.U64(t.firstCycle)
	w.U64(t.lastCycle)
	w.Bool(t.sawFirst)
	switch t.cfg.Mode {
	case Stochastic:
		t.sizeHist.SaveState(w)
		t.gapHist.SaveState(w)
		w.U64(t.lastPkt)
		w.Bool(t.sawPkt)
	case TraceDriven:
		t.latHist.SaveState(w)
		t.netLat.SaveState(w)
		t.totLat.SaveState(w)
		savePacketCycleMap(w, t.headInject)
		// The flow table goes out as three per-source sections.
		section := func(put func(f *flowRow)) {
			w.Int(len(t.flows))
			for i := range t.flows {
				w.U16(uint16(t.flows[i].src))
				put(&t.flows[i])
			}
		}
		section(func(f *flowRow) { w.U64(f.min) })
		section(func(f *flowRow) { f.lat.SaveState(w) })
		w.U64(t.congestion)
		// The last-latency section joins the layout only under
		// TrackLast; snapshots of plain trace-driven receptors are
		// byte-identical to the pre-TrackLast format.
		if t.cfg.TrackLast {
			section(func(f *flowRow) { w.U64(f.last) })
		}
	}
	if t.recorded != nil {
		w.Int(len(t.recorded.Records))
		for _, rec := range t.recorded.Records {
			w.U64(rec.Cycle)
			w.U16(uint16(rec.Dst))
			w.U16(rec.Len)
		}
	}
}

// LoadState restores the receptor.
func (t *TR) LoadState(r *state.Reader) error {
	mode, ok := r.Match(string(t.cfg.Mode))
	hasTrace := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("receptor %s: snapshot mode %q, built %q", t.cfg.Name, mode, t.cfg.Mode)
	}
	if hasTrace != (t.recorded != nil) {
		return fmt.Errorf("receptor %s: snapshot trace recording %v, built %v", t.cfg.Name, hasTrace, t.recorded != nil)
	}
	if err := t.ej.LoadState(r); err != nil {
		return fmt.Errorf("receptor %s: ejector: %w", t.cfg.Name, err)
	}
	t.cfg.ExpectPackets = r.U64()
	t.packets = r.U64()
	t.flits = r.U64()
	t.firstCycle = r.U64()
	t.lastCycle = r.U64()
	t.sawFirst = r.Bool()
	switch t.cfg.Mode {
	case Stochastic:
		if err := t.sizeHist.LoadState(r); err != nil {
			return fmt.Errorf("receptor %s: size histogram: %w", t.cfg.Name, err)
		}
		if err := t.gapHist.LoadState(r); err != nil {
			return fmt.Errorf("receptor %s: gap histogram: %w", t.cfg.Name, err)
		}
		t.lastPkt = r.U64()
		t.sawPkt = r.Bool()
	case TraceDriven:
		if err := t.latHist.LoadState(r); err != nil {
			return fmt.Errorf("receptor %s: latency histogram: %w", t.cfg.Name, err)
		}
		if err := t.netLat.LoadState(r); err != nil {
			return err
		}
		if err := t.totLat.LoadState(r); err != nil {
			return err
		}
		if err := loadPacketCycleMap(r, t.headInject); err != nil {
			return err
		}
		if err := t.loadFlowSection(r, true, func(f *flowRow) { f.min = r.U64() }); err != nil {
			return err
		}
		// A Welford load error is the reader's, reported by r.Err().
		if err := t.loadFlowSection(r, false, func(f *flowRow) { _ = f.lat.LoadState(r) }); err != nil {
			return err
		}
		t.congestion = r.U64()
		if t.cfg.TrackLast {
			if err := t.loadFlowSection(r, false, func(f *flowRow) { f.last = r.U64() }); err != nil {
				return err
			}
		}
	}
	if t.recorded != nil {
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("receptor %s: snapshot with %d trace records", t.cfg.Name, n)
		}
		t.recorded.Records = t.recorded.Records[:0]
		for i := 0; i < n && r.Err() == nil; i++ {
			rec := trace.Record{Cycle: r.U64(), Dst: flit.EndpointID(r.U16()), Len: r.U16()}
			t.recorded.Records = append(t.recorded.Records, rec)
		}
	}
	return r.Err()
}

func savePacketCycleMap(w *state.Writer, m map[flit.PacketID]uint64) {
	ids := make([]flit.PacketID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Int(len(ids))
	for _, id := range ids {
		w.U64(uint64(id))
		w.U64(m[id])
	}
}

// loadPacketCycleMap clears m and refills it from the snapshot, keeping
// the map's storage. The IDs must ascend strictly, as
// savePacketCycleMap writes them.
func loadPacketCycleMap(r *state.Reader, m map[flit.PacketID]uint64) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("receptor: map with %d entries", n)
	}
	clear(m)
	var last flit.PacketID
	for i := 0; i < n && r.Err() == nil; i++ {
		id := flit.PacketID(r.U64())
		if i > 0 && id <= last && r.Err() == nil {
			return fmt.Errorf("receptor: map lists packet %d after %d", id, last)
		}
		m[id], last = r.U64(), id
	}
	return r.Err()
}

// loadFlowSection reads one per-source section of the flow table. The
// first, the latency floors, sets the sources, strictly increasing;
// each later section must list the same ones.
func (t *TR) loadFlowSection(r *state.Reader, first bool, read func(*flowRow)) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	switch {
	case first && n < 0:
		return fmt.Errorf("receptor %s: snapshot with %d flows", t.cfg.Name, n)
	case first:
		// Refilled row by row over the rows held: every one is
		// overwritten whole or cut off, so none of an earlier session
		// survives, and a count the snapshot's bytes cannot back
		// allocates nothing.
		t.flows = t.flows[:0]
	case n != len(t.flows):
		return fmt.Errorf("receptor %s: snapshot flow sections list %d and %d sources", t.cfg.Name, len(t.flows), n)
	}
	for i := 0; i < n; i++ {
		src := flit.EndpointID(r.U16())
		if err := r.Err(); err != nil {
			return fmt.Errorf("receptor %s: flow %d of %d: %w", t.cfg.Name, i, n, err)
		}
		switch {
		case first && i > 0 && src <= t.flows[i-1].src:
			return fmt.Errorf("receptor %s: snapshot flow sources out of order (%d after %d)", t.cfg.Name, src, t.flows[i-1].src)
		case first:
			t.flows = append(t.flows, flowRow{src: src})
		case src != t.flows[i].src:
			return fmt.Errorf("receptor %s: snapshot flow sections disagree: source %d where the floors list %d",
				t.cfg.Name, src, t.flows[i].src)
		}
		read(&t.flows[i])
	}
	return r.Err()
}
