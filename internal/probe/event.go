// Package probe is the framework's event-tracing and time-series
// metrics subsystem — the software form of the logic-analyzer taps an
// FPGA emulation platform would expose.
//
// It is always compiled and off by default: components hold a *Probe
// that is nil when tracing is disabled, and every emit method is a
// nil-receiver no-op, so the instrumented data path costs nothing when
// no one is watching (the steady-state cycle loop stays at 0
// allocs/op; see the AllocsPerRun guard in internal/platform).
//
// When tracing is on, components append typed events to fixed-capacity
// per-component ring buffers (one producer per ring, so emission is
// race-free under the parallel kernel), and a Collector — an engine
// component registered last — drains every ring during its Tick, which
// the parallel kernel runs in the exclusive serialized window between
// the workers' arrival at its gate and the release. Draining order
// therefore varies with the
// kernel; the exported trace does not: events are canonically ordered
// at export time by (cycle, ring id), with a stable sort preserving
// each ring's emission order, and ring ids are assigned in
// deterministic platform build order. The same run therefore exports
// byte-identical JSONL for any worker count and with gating on or off.
package probe

import (
	"encoding/json"
	"fmt"
)

// Kind is the event type tag.
type Kind uint8

// Event kinds. The data-path kinds (inject through stall) are
// deterministic emulation results; the scheduler kinds (park, wake,
// ff) describe the kernel's own behaviour and are only emitted when
// Config.Sched is set — they legitimately differ between kernels and
// are excluded from golden traces.
const (
	// KindInject: a flit entered the network at an injector.
	KindInject Kind = 1 + iota
	// KindRoute: a switch forwarded a flit (Port = output, Val = input).
	KindRoute
	// KindBuffer: a buffer push (Val = occupancy after push).
	KindBuffer
	// KindEject: a flit left the network at an ejector (Val = 1 when
	// the integrity check failed).
	KindEject
	// KindDrop: a link lost a flit to double occupancy.
	KindDrop
	// KindCredit: an ejector granted a credit upstream.
	KindCredit
	// KindStall: an injector had a flit ready but no credit or a busy
	// output wire.
	KindStall
	// KindFaultArm: a fault window opened (Port = link index, Val = mode).
	KindFaultArm
	// KindFaultFire: a link corrupted a flit's payload.
	KindFaultFire
	// KindFaultClear: a fault window closed (Port = link index).
	KindFaultClear
	// KindPark: the sequential gated kernel parked a component.
	KindPark
	// KindWake: the sequential gated kernel woke a component.
	KindWake
	// KindFF: a kernel fast-forwarded the cycle counter (Val = target).
	KindFF

	numKinds = int(KindFF) + 1
)

var kindNames = [numKinds]string{
	KindInject:     "inject",
	KindRoute:      "route",
	KindBuffer:     "buffer",
	KindEject:      "eject",
	KindDrop:       "drop",
	KindCredit:     "credit",
	KindStall:      "stall",
	KindFaultArm:   "fault-arm",
	KindFaultFire:  "fault-fire",
	KindFaultClear: "fault-clear",
	KindPark:       "park",
	KindWake:       "wake",
	KindFF:         "ff",
}

// String returns the schema name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText implements encoding.TextMarshaler so events serialize
// kinds by schema name.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return nil, fmt.Errorf("probe: marshal of unknown event kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("probe: unknown event kind %q", s)
}

// Event is one traced occurrence. Field meanings beyond the flit
// identity depend on Kind (see the kind constants and DESIGN.md §11);
// unused fields are zero and omitted from the JSONL form.
type Event struct {
	// Cycle is the emulated cycle the event occurred in.
	Cycle uint64 `json:"cycle"`
	// Kind tags the event type.
	Kind Kind `json:"kind"`
	// Comp names the emitting component instance.
	Comp string `json:"comp"`
	// Ring is the emitting ring's id (platform build order; the
	// scheduler pseudo-ring is SchedRing). Part of the canonical sort
	// key, kept in the record so traces are self-describing.
	Ring uint32 `json:"ring"`
	// Pkt/Src/Dst/Idx identify the flit for flit-borne kinds.
	Pkt uint64 `json:"pkt,omitempty"`
	Src uint16 `json:"src,omitempty"`
	Dst uint16 `json:"dst,omitempty"`
	Idx uint16 `json:"idx,omitempty"`
	// VC is the virtual channel, where one applies.
	VC uint16 `json:"vc,omitempty"`
	// Port is the kind-specific port/index operand.
	Port uint32 `json:"port,omitempty"`
	// Val is the kind-specific value operand.
	Val uint64 `json:"val,omitempty"`
}

// SchedRing is the pseudo-ring id of kernel scheduler events. It is
// the largest ring id, so scheduler events sort after data-path events
// within a cycle.
const SchedRing = ^uint32(0)

// MarshalJSONL renders the event as one canonical JSONL line (no
// trailing newline). Field order follows the struct declaration and
// zero-valued optional fields are omitted, so equal events always
// produce equal bytes.
func (ev Event) MarshalJSONL() ([]byte, error) {
	return json.Marshal(ev)
}
