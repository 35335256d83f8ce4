// The co-simulation service protocol (DESIGN.md §16): versioned JSONL
// request/response frames spoken by cmd/nocserve over stdio and HTTP.
// One request per line, one response per line, in order. The schema
// lives here beside the other JSON shapes so internal/serve and
// external clients share a single strict definition.
//
// Decoding is strict: unknown fields, unsupported versions, trailing
// garbage and malformed frames are rejected, never guessed at. Every
// response is marshaled from a fixed struct (declaration-order keys,
// shortest-round-trip floats), so a session's response transcript is a
// deterministic function of its request stream and platform — the
// property the isolation and determinism suites pin.
package jsonio

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ServeVersion is the protocol version spoken by this build. Requests
// must carry it in "v"; mismatches are rejected so stale clients fail
// loudly instead of silently misreading answers.
const ServeVersion = 1

// Serve protocol operations.
const (
	OpOpen   = "open"   // create a session pinned to a platform
	OpInject = "inject" // script packets (src, dst, bytes) without running
	OpStep   = "step"   // advance emulated cycles
	OpXfer   = "xfer"   // inject one transfer and run until it lands (the BookSim-style oracle call)
	OpStats  = "stats"  // aggregate platform statistics over the buses
	OpFlow   = "flow"   // one (src, dst) flow's latency summary
	OpPark   = "park"   // snapshot the session to the park store and release its platform
	OpResume = "resume" // restore a parked session
	OpClose  = "close"  // end the session and release its platform
)

// ServePlatform pins a session's platform: either an inline JSON
// platform config (Config) or a topology-spec × workload shorthand,
// which stands for the workload-recipe config it spells. The server
// forces every TG scriptable and every TR into trace-driven
// last-latency analysis — that is what makes inject/xfer/flow
// answerable over the buses.
type ServePlatform struct {
	// Config is a complete inline platform config (same schema as the
	// nocemu JSON file format). When set, the spec fields below are
	// ignored except the NoGate override and the serve tunables.
	Config *File `json:"config,omitempty"`
	// Topo is a declarative topology spec string, e.g. "mesh:w=4,h=4"
	// (default). See TOPOLOGIES.md for the registry.
	Topo string `json:"topo,omitempty"`
	// Workload names a registered traffic recipe for background load
	// (default "script": sources emit only scripted demands).
	Workload string `json:"workload,omitempty"`
	// Injection is the background offered load per terminal in
	// flits/cycle (default 0.1; unused by the "script" workload).
	Injection float64 `json:"injection,omitempty"`
	// PacketLen is the background workload packet size in flits.
	PacketLen uint16 `json:"packet_len,omitempty"`
	// Seed is the platform base seed; WorkloadSeed steers workload
	// structure (hotspot victim placement).
	Seed         uint32 `json:"seed,omitempty"`
	WorkloadSeed uint32 `json:"workload_seed,omitempty"`
	// NoGate disables quiescence gating. Results are bit-identical
	// either way.
	NoGate bool `json:"no_gate,omitempty"`
	// Warmup runs this many cycles before the session starts (answers
	// then reflect steady state); warmed snapshots are cached so later
	// sessions skip the replay.
	Warmup uint64 `json:"warmup,omitempty"`
	// FlitBytes sets the bytes-per-flit conversion for request sizes
	// (default 4).
	FlitBytes int `json:"flit_bytes,omitempty"`
	// QueueFlits is each source queue's capacity (default 256; bounds
	// the largest single transfer).
	QueueFlits int `json:"queue_flits,omitempty"`
}

// ServeRequest is one protocol request frame.
type ServeRequest struct {
	// V is the protocol version (ServeVersion).
	V int `json:"v"`
	// ID is an opaque client token echoed on the response.
	ID uint64 `json:"id"`
	// Op selects the operation.
	Op string `json:"op"`
	// Sid names the session. Client-chosen on open (server-assigned
	// ids would make transcripts depend on server history).
	Sid string `json:"sid,omitempty"`
	// Platform describes the session platform (open only).
	Platform *ServePlatform `json:"platform,omitempty"`
	// Src and Dst are raw endpoint ids: Src names a traffic generator,
	// Dst a sink. NetConfig platforms place source i at endpoint i and
	// its co-located sink at endpoint T+i for T terminals.
	Src uint16 `json:"src,omitempty"`
	Dst uint16 `json:"dst,omitempty"`
	// Bytes sizes an inject/xfer transfer; flits = ceil(bytes /
	// flit_bytes), minimum one flit.
	Bytes uint64 `json:"bytes,omitempty"`
	// Count repeats an inject (default 1).
	Count uint64 `json:"count,omitempty"`
	// At is the earliest emission cycle for inject (clamped up to the
	// current cycle).
	At uint64 `json:"at,omitempty"`
	// Cycles is the step length, or the xfer deadline (default 100000).
	Cycles uint64 `json:"cycles,omitempty"`
}

// ServeStats is the bus-sourced aggregate statistics answer.
type ServeStats struct {
	// Packets and Flits received across every sink.
	Packets uint64 `json:"packets"`
	Flits   uint64 `json:"flits"`
	// LatencyMean is the packet-weighted mean network latency in
	// cycles; LatencyMax the maximum across sinks.
	LatencyMean float64 `json:"latency_mean"`
	LatencyMax  float64 `json:"latency_max"`
	// Congestion is the summed congestion counter (excess latency
	// cycles over each flow's observed floor).
	Congestion uint64 `json:"congestion"`
	// Occupancy is the flits buffered in switch input FIFOs right now;
	// Blocked the summed blocked head-flit cycles.
	Occupancy uint64 `json:"occupancy"`
	Blocked   uint64 `json:"blocked"`
}

// ServeFlow is one (src, dst) flow's latency summary.
type ServeFlow struct {
	// Packets delivered from src at the dst sink.
	Packets uint64 `json:"packets"`
	// Mean/Max network latency in cycles over those packets.
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	// Last is the most recent packet's network latency.
	Last uint64 `json:"last"`
}

// ServeResponse is one protocol response frame.
type ServeResponse struct {
	V  int    `json:"v"`
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Err carries the failure reason when OK is false.
	Err string `json:"err,omitempty"`
	// Sid echoes the session.
	Sid string `json:"sid,omitempty"`
	// Cycle is the session's emulated cycle after the operation.
	Cycle uint64 `json:"cycle,omitempty"`
	// Flits reports the flit length of an inject/xfer transfer.
	Flits uint64 `json:"flits,omitempty"`
	// Delivered reports whether an xfer landed within its deadline;
	// Latency is then its network latency in cycles.
	Delivered bool        `json:"delivered,omitempty"`
	Latency   uint64      `json:"latency,omitempty"`
	Stats     *ServeStats `json:"stats,omitempty"`
	Flow      *ServeFlow  `json:"flow,omitempty"`
}

// serveOps is the operation whitelist.
var serveOps = map[string]bool{
	OpOpen: true, OpInject: true, OpStep: true, OpXfer: true,
	OpStats: true, OpFlow: true, OpPark: true, OpResume: true, OpClose: true,
}

// DecodeServeRequest strictly decodes one request frame: unknown
// fields, version mismatches, unknown operations, missing required
// fields and trailing garbage are all errors.
func DecodeServeRequest(frame []byte) (ServeRequest, error) {
	var req ServeRequest
	dec := json.NewDecoder(bytes.NewReader(frame))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ServeRequest{}, fmt.Errorf("serve: malformed frame: %v", err)
	}
	// A frame is exactly one JSON object.
	if dec.More() {
		return ServeRequest{}, fmt.Errorf("serve: trailing data after frame")
	}
	if err := req.Validate(); err != nil {
		return ServeRequest{}, err
	}
	return req, nil
}

// Validate checks a request frame's protocol invariants (not session
// state, which is the server's business).
func (r ServeRequest) Validate() error {
	if r.V != ServeVersion {
		return fmt.Errorf("serve: protocol version %d, want %d", r.V, ServeVersion)
	}
	if !serveOps[r.Op] {
		return fmt.Errorf("serve: unknown op %q", r.Op)
	}
	if r.Sid == "" {
		return fmt.Errorf("serve: op %q without sid", r.Op)
	}
	switch r.Op {
	case OpOpen:
		if r.Platform == nil {
			return fmt.Errorf("serve: open without platform")
		}
	case OpInject, OpXfer:
		if r.Bytes == 0 {
			return fmt.Errorf("serve: %s with zero bytes", r.Op)
		}
	case OpStep:
		if r.Cycles == 0 {
			return fmt.Errorf("serve: step with zero cycles")
		}
	}
	if r.Op != OpOpen && r.Platform != nil {
		return fmt.Errorf("serve: op %q does not take a platform", r.Op)
	}
	return nil
}

// EncodeServeResponse marshals one response frame (no trailing
// newline; transports add their own framing).
func EncodeServeResponse(resp ServeResponse) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		// A response struct of plain values cannot fail to marshal.
		panic(fmt.Sprintf("serve: marshal response: %v", err))
	}
	return b
}

// EncodeServeRequest marshals one request frame for clients and tests.
func EncodeServeRequest(req ServeRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal request: %v", err))
	}
	return b
}
