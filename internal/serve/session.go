// Session state and per-session operations. A session owns one built
// platform; its mutex serializes operations so a session's response
// transcript depends only on its own request order, never on what
// other sessions do on their platforms.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"nocemu/internal/flit"
	"nocemu/internal/jsonio"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/topology"
	"nocemu/internal/traffic"
)

const (
	// defaultFlitBytes converts request byte counts to flits.
	defaultFlitBytes = 4
	// defaultQueueFlits bounds the largest single transfer.
	defaultQueueFlits = 256
	// defaultXferDeadline is the xfer cycle budget when the request
	// does not set one.
	defaultXferDeadline = 100000
	// xferChunk is the fixed poll granularity of xfer: the kernel runs
	// in whole chunks between flow-table reads, so the cycle a session
	// lands on is a deterministic function of its request stream.
	xferChunk = 64
)

// session is one client's pinned platform.
type session struct {
	id     string
	sp     jsonio.ServePlatform // normalized: an inline config
	config []byte               // sp.Config's canonical JSON (sessionKeys)
	key    string               // platform pool key

	mu  sync.Mutex
	p   *platform.Platform // nil once parked, closed or failed to open
	bus *busView
	// lastOp is the manager's logical clock at the session's most
	// recent use; the LRU eviction order (wall time would make
	// eviction, and thus transcripts, timing-dependent).
	lastOp uint64
}

// normalizePlatform rewrites a description in the one form sessions are
// lowered, keyed and parked by: an inline config carrying everything
// that shapes the platform, the kernel included, and the serve tunables
// with their defaults. The topo/workload shorthand becomes the config
// it means; an inline config takes the request's kernel selection.
func normalizePlatform(sp jsonio.ServePlatform) (jsonio.ServePlatform, error) {
	var f jsonio.File
	if sp.Config != nil {
		f = *sp.Config
	} else {
		if sp.Topo == "" {
			sp.Topo = "mesh:w=4,h=4"
		}
		if sp.Workload == "" {
			sp.Workload = "script"
		}
		spec, err := topology.ParseSpec(sp.Topo)
		if err != nil {
			return jsonio.ServePlatform{}, fmt.Errorf("serve: topo: %v", err)
		}
		f = jsonio.File{
			Topology: jsonio.TopologySpec{Kind: spec.Kind, Params: spec.Param},
			Workload: &jsonio.WorkloadSpec{
				Kind:      sp.Workload,
				Injection: sp.Injection,
				PacketLen: sp.PacketLen,
				Seed:      sp.WorkloadSeed,
			},
			Seed: sp.Seed,
		}
	}
	f.NoGate = sp.NoGate
	norm := jsonio.ServePlatform{Config: &f, Warmup: sp.Warmup, FlitBytes: sp.FlitBytes, QueueFlits: sp.QueueFlits}
	if norm.FlitBytes == 0 {
		norm.FlitBytes = defaultFlitBytes
	}
	if norm.QueueFlits == 0 {
		norm.QueueFlits = defaultQueueFlits
	}
	return norm, nil
}

// sessionKeys names a normalized description. config is its config's
// canonical JSON (fixed struct: declaration-order keys, sorted maps),
// which a park header embeds. pool and warm are two keys over one state
// key: that JSON with the kernel field zeroed, since snapshots restore
// into any kernel, plus the queue depth sessionConfig patches on. The
// pool key adds the kernel (a pooled platform is a built kernel), the
// warm-snapshot key the warm-up.
func sessionKeys(sp jsonio.ServePlatform) (config []byte, pool, warm string, err error) {
	if config, err = json.Marshal(sp.Config); err != nil {
		return nil, "", "", fmt.Errorf("serve: platform key: %v", err)
	}
	b := config // the kernel field is omitted when zero
	if sp.Config.NoGate {
		f := *sp.Config
		f.NoGate = false
		if b, err = json.Marshal(f); err != nil {
			return nil, "", "", fmt.Errorf("serve: platform key: %v", err)
		}
	}
	state := fmt.Sprintf("serve|%s|queue=%d", b, sp.QueueFlits)
	return config, fmt.Sprintf("%s|no_gate=%t", state, sp.Config.NoGate),
		fmt.Sprintf("%s|warmup=%d", state, sp.Warmup), nil
}

// sessionConfig lowers a normalized platform description to a platform
// config with the serve surfaces forced on: every source scriptable
// (InjectScript reaches it) and every sink a trace-driven analyzer
// with last-latency tracking (FLOW_LAST answers xfer).
func sessionConfig(sp jsonio.ServePlatform) (platform.Config, error) {
	cfg, err := sp.Config.ToConfig("")
	if err != nil {
		return platform.Config{}, fmt.Errorf("serve: platform config: %v", err)
	}
	if cfg.Name == "" {
		cfg.Name = "serve"
	}
	for i := range cfg.TGs {
		cfg.TGs[i].Scripted = true // a source without a model already is
		if cfg.TGs[i].QueueFlits == 0 {
			cfg.TGs[i].QueueFlits = sp.QueueFlits
		}
	}
	for i := range cfg.TRs {
		cfg.TRs[i].Mode = receptor.TraceDriven
		cfg.TRs[i].TrackLast = true
	}
	return cfg, nil
}

// buildPlatform builds a session platform from its normalized
// description.
func buildPlatform(sp jsonio.ServePlatform) (*platform.Platform, error) {
	cfg, err := sessionConfig(sp)
	if err != nil {
		return nil, err
	}
	p, err := platform.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: build platform: %v", err)
	}
	return p, nil
}

// flitLen converts a request byte count to a flit length, bounded by
// the source queue so a single transfer can always be enqueued.
func (s *session) flitLen(bytes uint64) (uint16, error) {
	fb := uint64(s.sp.FlitBytes)
	n := (bytes + fb - 1) / fb
	if n == 0 {
		n = 1
	}
	if n > uint64(s.sp.QueueFlits) {
		return 0, fmt.Errorf("serve: %d bytes is %d flits, over the %d-flit queue", bytes, n, s.sp.QueueFlits)
	}
	if n > math.MaxUint16 {
		return 0, fmt.Errorf("serve: %d bytes exceeds the max packet length", bytes)
	}
	return uint16(n), nil
}

// inject scripts req.Count packets of req.Bytes from src to dst, due
// no earlier than cycle req.At, without advancing the platform.
func (s *session) inject(req jsonio.ServeRequest, resp *jsonio.ServeResponse) error {
	ln, err := s.flitLen(req.Bytes)
	if err != nil {
		return err
	}
	dst := flit.EndpointID(req.Dst)
	if _, ok := s.p.TRDev(dst); !ok {
		return fmt.Errorf("serve: no sink at endpoint %d", req.Dst)
	}
	count := req.Count
	if count == 0 {
		count = 1
	}
	rec := traffic.ScriptRec{At: req.At, Dst: dst, Len: ln, Payload: uint32(req.ID)}
	for i := uint64(0); i < count; i++ {
		if err := s.p.InjectScript(flit.EndpointID(req.Src), rec); err != nil {
			return err
		}
	}
	resp.Flits = uint64(ln) * count
	return nil
}

// xfer scripts one transfer and runs the platform in fixed chunks
// until the destination's flow table shows another packet from src (a
// landing) or the cycle budget runs out.
func (s *session) xfer(req jsonio.ServeRequest, resp *jsonio.ServeResponse) error {
	ln, err := s.flitLen(req.Bytes)
	if err != nil {
		return err
	}
	dst := flit.EndpointID(req.Dst)
	dev, ok := s.p.TRDev(dst)
	if !ok {
		return fmt.Errorf("serve: no sink at endpoint %d", req.Dst)
	}
	before, err := s.bus.flow(dev, req.Src)
	if err != nil {
		return err
	}
	at := req.At
	if c := s.bus.cycle(); at < c {
		at = c
	}
	rec := traffic.ScriptRec{At: req.At, Dst: dst, Len: ln, Payload: uint32(req.ID)}
	if err := s.p.InjectScript(flit.EndpointID(req.Src), rec); err != nil {
		return err
	}
	deadline := req.Cycles
	if deadline == 0 {
		deadline = defaultXferDeadline
	}
	resp.Flits = uint64(ln)
	limit := at + deadline
	for {
		cur := s.bus.cycle()
		if cur >= limit {
			return nil // not delivered within the budget; OK, Delivered=false
		}
		run := uint64(xferChunk)
		if rem := limit - cur; rem < run {
			run = rem
		}
		s.p.RunCycles(run)
		fl, err := s.bus.flow(dev, req.Src)
		if err != nil {
			return err
		}
		if fl.Packets > before.Packets {
			resp.Delivered = true
			resp.Latency = fl.Last
			return nil
		}
	}
}

// stats fills the platform-wide statistics answer.
func (s *session) stats(resp *jsonio.ServeResponse) error {
	st, err := s.bus.stats()
	if err != nil {
		return err
	}
	resp.Stats = &st
	return nil
}

// flowQuery fills the (src, dst) flow latency answer.
func (s *session) flowQuery(req jsonio.ServeRequest, resp *jsonio.ServeResponse) error {
	dev, ok := s.p.TRDev(flit.EndpointID(req.Dst))
	if !ok {
		return fmt.Errorf("serve: no sink at endpoint %d", req.Dst)
	}
	fl, err := s.bus.flow(dev, req.Src)
	if err != nil {
		return err
	}
	resp.Flow = &fl
	return nil
}
