package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nocemu/internal/jsonio"
)

// testPlatform is the small session platform the suites share: a 2x2
// mesh (sources 0-3, co-located sinks 4-7).
func testPlatform(nogate bool, warmup uint64) *jsonio.ServePlatform {
	return &jsonio.ServePlatform{
		Topo:     "mesh:w=2,h=2",
		Workload: "script",
		NoGate:   nogate,
		Warmup:   warmup,
	}
}

// loadedPlatform adds a background uniform workload, so answers carry
// model traffic on top of the scripted transfers.
func loadedPlatform(nogate bool, warmup uint64) *jsonio.ServePlatform {
	sp := testPlatform(nogate, warmup)
	sp.Workload = "uniform"
	sp.Injection = 0.05
	sp.PacketLen = 2
	return sp
}

// runScript dispatches the requests in order and returns the JSONL
// response transcript — the byte string the determinism and isolation
// suites compare.
func runScript(m *Manager, reqs []jsonio.ServeRequest) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		resp := m.Dispatch(r)
		buf.Write(jsonio.EncodeServeResponse(resp))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// req is shorthand for a protocol request.
func req(id uint64, op, sid string) jsonio.ServeRequest {
	return jsonio.ServeRequest{V: jsonio.ServeVersion, ID: id, Op: op, Sid: sid}
}

// sessionScript is the canonical client session: open, script
// traffic, run, read a flow, oracle transfers, aggregate statistics,
// park + resume, a post-resume transfer, close. seed varies the
// endpoints so concurrent sessions do different work.
func sessionScript(sid string, sp *jsonio.ServePlatform, seed int) []jsonio.ServeRequest {
	src := uint16(seed % 4)
	dst := uint16(4 + (seed+1)%4)
	open := req(1, jsonio.OpOpen, sid)
	open.Platform = sp
	inject := req(2, jsonio.OpInject, sid)
	inject.Src, inject.Dst, inject.Bytes, inject.Count = src, dst, 64, 3
	step := req(3, jsonio.OpStep, sid)
	step.Cycles = 200
	flow := req(4, jsonio.OpFlow, sid)
	flow.Src, flow.Dst = src, dst
	xfer := req(5, jsonio.OpXfer, sid)
	xfer.Src, xfer.Dst, xfer.Bytes = src, dst, 32
	stats := req(6, jsonio.OpStats, sid)
	park := req(7, jsonio.OpPark, sid)
	resume := req(8, jsonio.OpResume, sid)
	xfer2 := req(9, jsonio.OpXfer, sid)
	xfer2.Src, xfer2.Dst, xfer2.Bytes = src, uint16(4+(seed+2)%4), 128
	stats2 := req(10, jsonio.OpStats, sid)
	close_ := req(11, jsonio.OpClose, sid)
	return []jsonio.ServeRequest{open, inject, step, flow, xfer, stats, park, resume, xfer2, stats2, close_}
}

// decodeLines splits a transcript back into responses for assertions.
func decodeLines(t *testing.T, transcript []byte) []jsonio.ServeResponse {
	t.Helper()
	var out []jsonio.ServeResponse
	for _, line := range bytes.Split(bytes.TrimSpace(transcript), []byte("\n")) {
		var resp jsonio.ServeResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("bad transcript line %s: %v", line, err)
		}
		out = append(out, resp)
	}
	return out
}

func TestSessionLifecycle(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	sid := "life"
	script := sessionScript(sid, testPlatform(false, 32), 0)
	resps := decodeLines(t, runScript(m, script))
	if len(resps) != len(script) {
		t.Fatalf("%d responses for %d requests", len(resps), len(script))
	}
	for i, r := range resps {
		if !r.OK {
			t.Fatalf("request %d (%s) failed: %s", i, script[i].Op, r.Err)
		}
		if r.ID != script[i].ID || r.Sid != sid {
			t.Fatalf("request %d echo mismatch: id %d sid %q", i, r.ID, r.Sid)
		}
	}
	if c := resps[0].Cycle; c != 32 {
		t.Fatalf("open cycle %d, want the 32-cycle warmup", c)
	}
	if f := resps[1].Flits; f != 3*16 {
		t.Fatalf("inject reported %d flits, want 48 (3 x 64B / 4B-per-flit)", f)
	}
	flow := resps[3].Flow
	if flow == nil || flow.Packets != 3 {
		t.Fatalf("flow answer %+v, want 3 packets", flow)
	}
	if flow.Mean <= 0 || flow.Last == 0 {
		t.Fatalf("flow latency answer %+v, want nonzero mean and last", flow)
	}
	xfer := resps[4]
	if !xfer.Delivered || xfer.Latency == 0 {
		t.Fatalf("xfer %+v, want delivered with nonzero latency", xfer)
	}
	st := resps[5].Stats
	if st == nil || st.Packets != 4 || st.LatencyMean <= 0 {
		t.Fatalf("stats %+v, want 4 packets with nonzero mean latency", st)
	}
	// Resume continues the parked cycle exactly.
	if resps[7].Cycle != resps[6].Cycle {
		t.Fatalf("resumed at cycle %d, parked at %d", resps[7].Cycle, resps[6].Cycle)
	}
	if !resps[8].Delivered {
		t.Fatalf("post-resume xfer not delivered: %+v", resps[8])
	}
	got := m.Stats()
	if got.LiveSessions != 0 || got.ParkedSessions != 0 {
		t.Fatalf("stats after close: %+v, want no live or parked sessions", got)
	}
	if got.Opened != 1 || got.Closed != 1 || got.Parked != 1 || got.Resumed != 1 {
		t.Fatalf("counters %+v", got)
	}
	if got.PooledPlatforms == 0 {
		t.Fatalf("closed session's platform was not pooled: %+v", got)
	}
}

func TestSessionErrors(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	open := req(1, jsonio.OpOpen, "e")
	open.Platform = testPlatform(false, 0)
	if r := m.Dispatch(open); !r.OK {
		t.Fatalf("open: %s", r.Err)
	}
	cases := []struct {
		name string
		r    jsonio.ServeRequest
		want string
	}{
		{"duplicate open", open, "already open"},
		{"unknown session", func() jsonio.ServeRequest {
			s := req(2, jsonio.OpStep, "ghost")
			s.Cycles = 1
			return s
		}(), "unknown session"},
		{"bad sink", func() jsonio.ServeRequest {
			s := req(3, jsonio.OpInject, "e")
			s.Src, s.Dst, s.Bytes = 0, 99, 8
			return s
		}(), "no sink at endpoint 99"},
		{"oversized transfer", func() jsonio.ServeRequest {
			s := req(4, jsonio.OpXfer, "e")
			s.Src, s.Dst, s.Bytes = 0, 4, 1<<20
			return s
		}(), "over the 256-flit queue"},
		{"resume unparked", req(5, jsonio.OpResume, "ghost"), "no parked session"},
		{"bad topo", func() jsonio.ServeRequest {
			s := req(6, jsonio.OpOpen, "e2")
			s.Platform = &jsonio.ServePlatform{Topo: "nosuchtopo"}
			return s
		}(), "topo"},
	}
	for _, c := range cases {
		r := m.Dispatch(c.r)
		if r.OK || !strings.Contains(r.Err, c.want) {
			t.Fatalf("%s: got ok=%v err=%q, want error containing %q", c.name, r.OK, r.Err, c.want)
		}
	}
	// Closing a parked session discards it without resuming.
	if r := m.Dispatch(req(7, jsonio.OpPark, "e")); !r.OK {
		t.Fatalf("park: %s", r.Err)
	}
	if r := m.Dispatch(req(8, jsonio.OpClose, "e")); !r.OK {
		t.Fatalf("close parked: %s", r.Err)
	}
	if got := m.Stats(); got.ParkedSessions != 0 || got.LiveSessions != 0 {
		t.Fatalf("stats %+v, want empty", got)
	}
}

func TestShutdownRejectsRequests(t *testing.T) {
	m := NewManager(Options{})
	open := req(1, jsonio.OpOpen, "s")
	open.Platform = testPlatform(false, 0)
	if r := m.Dispatch(open); !r.OK {
		t.Fatalf("open: %s", r.Err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	step := req(2, jsonio.OpStep, "s")
	step.Cycles = 1
	if r := m.Dispatch(step); r.OK || !strings.Contains(r.Err, "shutting down") {
		t.Fatalf("post-shutdown dispatch: ok=%v err=%q", r.OK, r.Err)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestSessionsPastThePaperBusMap: platforms with more devices than the
// paper's 4 × 1024 bus map open as sessions, land a transfer and answer
// stats, because every sink and switch the answers read has an address.
func TestSessionsPastThePaperBusMap(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	for _, c := range []struct {
		topo     string
		src, dst uint16
	}{
		{"mesh:w=32,h=32", 0, 2047},      // sinks 1024-2047: the far corner
		{"butterfly:w=16,h=16", 17, 511}, // sinks 256-511
	} {
		t.Run(c.topo, func(t *testing.T) {
			open := req(1, jsonio.OpOpen, c.topo)
			open.Platform = &jsonio.ServePlatform{Topo: c.topo}
			xfer := req(2, jsonio.OpXfer, c.topo)
			xfer.Src, xfer.Dst, xfer.Bytes = c.src, c.dst, 64
			script := []jsonio.ServeRequest{open, xfer, req(3, jsonio.OpStats, c.topo), req(4, jsonio.OpClose, c.topo)}
			resps := decodeLines(t, runScript(m, script))
			for i, r := range resps {
				if !r.OK {
					t.Fatalf("request %d (%s) failed: %s", i, script[i].Op, r.Err)
				}
			}
			if x := resps[1]; !x.Delivered || x.Latency == 0 {
				t.Errorf("xfer %+v, want delivered with nonzero latency", x)
			}
			if st := resps[2].Stats; st == nil || st.Packets != 1 || st.LatencyMean == 0 {
				t.Errorf("stats %+v, want the one transfer's packet and latency", st)
			}
		})
	}
}
