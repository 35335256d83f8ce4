package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"nocemu/internal/jsonio"
	"nocemu/internal/platform"
	"nocemu/internal/receptor"
	"nocemu/internal/serve"
	"nocemu/internal/topology"
)

// step is one generated request: the struct, its wire frame, and for a
// transfer the switch-to-switch hop count its latency cannot beat.
type step struct {
	req   jsonio.ServeRequest
	frame []byte
	hops  uint64
	// op groups the spans of one transfer or one session.
	op int
}

// via is one way of delivering a request to a manager.
type via struct {
	name string
	call func(s step) (resp jsonio.ServeResponse, raw []byte, err error)
}

// rpcServer is a manager behind net/http on a real loopback socket,
// with the single keep-alive client connection the workloads use.
type rpcServer struct {
	m      *serve.Manager
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startServer(opt serve.Options) (*rpcServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := serve.NewManager(opt)
	s := &rpcServer{
		m:    m,
		srv:  &http.Server{Handler: serve.NewHTTPHandler(m)},
		done: make(chan struct{}),
		url:  "http://" + l.Addr().String() + "/v1/rpc",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(l) // returns once stop closes the server
	}()
	return s, nil
}

// stop closes the client connection, the server and its goroutine,
// then the manager.
func (s *rpcServer) stop() error {
	s.client.CloseIdleConnections()
	s.srv.Close()
	<-s.done
	return s.m.Shutdown()
}

func (s *rpcServer) http() via {
	return via{"http", func(st step) (resp jsonio.ServeResponse, raw []byte, err error) {
		r, err := s.client.Post(s.url, "application/json", bytes.NewReader(st.frame))
		if err != nil {
			return resp, nil, err
		}
		raw, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return resp, nil, err
		}
		if r.StatusCode != http.StatusOK {
			return resp, nil, fmt.Errorf("http %d: %s", r.StatusCode, raw)
		}
		raw = bytes.TrimSpace(raw)
		return resp, raw, json.Unmarshal(raw, &resp)
	}}
}

func viaHandle(m *serve.Manager) via {
	return via{"handle", func(st step) (jsonio.ServeResponse, []byte, error) {
		return serve.Handle(m, st.frame), nil, nil
	}}
}

func viaDispatch(m *serve.Manager) via {
	return via{"dispatch", func(st step) (jsonio.ServeResponse, []byte, error) {
		return m.Dispatch(st.req), nil, nil
	}}
}

// played is what one pass over a plan observed.
type played struct {
	lat   []time.Duration
	resps []jsonio.ServeResponse
	// transcript is the response stream as it goes over the wire.
	transcript [][]byte
	// wall is the sum of the latencies: the loop is closed, so nothing
	// but the benchmark's own bookkeeping happens between two requests.
	wall time.Duration
}

// newPlayed sizes the record of one pass over a plan.
func newPlayed(n int) *played {
	return &played{
		lat:        make([]time.Duration, n),
		resps:      make([]jsonio.ServeResponse, n),
		transcript: make([][]byte, n),
	}
}

// call delivers request i of a plan under a span and records the answer.
func (pl *played) call(e *env, v via, i int, st step) (err error) {
	pl.lat[i] = e.rec.do(v.name+":"+st.req.Op, st.op, func() {
		pl.resps[i], pl.transcript[i], err = v.call(st)
	})
	if err != nil {
		return fmt.Errorf("%s %s: %w", v.name, st.req.Op, err)
	}
	return nil
}

// verify checks every response of a pass — OK, the echoed id, and for
// a transfer that it landed and took at least its hop count — and
// completes the transcript of an in-process pass.
func (pl *played) verify(o *outcome, v via, plan []step) {
	for i, st := range plan {
		r := pl.resps[i]
		ok := r.OK && r.ID == st.req.ID
		if st.req.Op == jsonio.OpXfer {
			ok = ok && r.Delivered && r.Latency >= st.hops
		}
		o.check(ok, "%s %s id %d (%d hops): %+v", v.name, st.req.Op, st.req.ID, st.hops, r)
		if pl.transcript[i] == nil {
			pl.transcript[i] = jsonio.EncodeServeResponse(r)
		}
	}
}

// play sends a plan's requests one after another — a closed loop with
// one client, as a co-simulation caller that waits for each answer —
// and verifies every response. With alt, only even ops are recorded as
// spans, so the odd ones give the untraced latency of the same work.
func play(e *env, o *outcome, v via, plan []step, alt bool) (*played, error) {
	pl := newPlayed(len(plan))
	for i, st := range plan {
		if alt {
			e.rec.enable(st.op%2 == 0)
		}
		if err := pl.call(e, v, i, st); err != nil {
			return nil, err
		}
	}
	e.rec.enable(true)
	for _, d := range pl.lat {
		pl.wall += d
	}
	pl.verify(o, v, plan)
	return pl, nil
}

// planner generates requests from the seed: a permutation of every
// (source, other terminal's sink) pair of the mesh, cycled.
type planner struct {
	z  serveSize
	sp *jsonio.ServePlatform
	// w is the mesh width, n its terminal count.
	w, n  int
	pairs [][2]int
	next  int
	id    uint64
}

func newPlanner(z serveSize, seed uint32) (*planner, error) {
	spec, err := topology.ParseSpec(z.Topo)
	if err != nil {
		return nil, err
	}
	pn := &planner{z: z, w: spec.Param["w"], sp: &jsonio.ServePlatform{
		Topo: z.Topo, Workload: z.Workload, Injection: z.Inj,
		Seed: seed, WorkloadSeed: seed, Warmup: z.Warmup,
	}}
	pn.n = pn.w * spec.Param["h"]
	for s := 0; s < pn.n; s++ {
		for d := 0; d < pn.n; d++ {
			if s != d {
				pn.pairs = append(pn.pairs, [2]int{s, d})
			}
		}
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(pn.pairs), func(i, j int) {
		pn.pairs[i], pn.pairs[j] = pn.pairs[j], pn.pairs[i]
	})
	return pn, nil
}

func (pn *planner) step(op int, req jsonio.ServeRequest) step {
	pn.id++
	req.V, req.ID = jsonio.ServeVersion, pn.id
	return step{req: req, frame: jsonio.EncodeServeRequest(req), op: op}
}

func (pn *planner) open(op int, sid string) step {
	return pn.step(op, jsonio.ServeRequest{Op: jsonio.OpOpen, Sid: sid, Platform: pn.sp})
}

// xfer is the next transfer of the permuted sequence. NetConfig puts
// source i at endpoint i and terminal j's sink at endpoint T+j.
func (pn *planner) xfer(op int, sid string) step {
	p := pn.pairs[pn.next%len(pn.pairs)]
	pn.next++
	st := pn.step(op, jsonio.ServeRequest{
		Op: jsonio.OpXfer, Sid: sid, Bytes: pn.z.XferBytes,
		Src: uint16(p[0]), Dst: uint16(pn.n + p[1]),
	})
	sx, sy := topology.MeshXY(topology.NodeID(p[0]), pn.w)
	dx, dy := topology.MeshXY(topology.NodeID(p[1]), pn.w)
	st.hops = uint64(abs(sx-dx) + abs(sy-dy))
	return st
}

// session is one whole lifecycle: open warm, transfer, park, resume,
// transfer, stats, close.
func (pn *planner) session(op int, sid string) []step {
	plain := func(o string) step { return pn.step(op, jsonio.ServeRequest{Op: o, Sid: sid}) }
	return []step{
		pn.open(op, sid), pn.xfer(op, sid), plain(jsonio.OpPark), plain(jsonio.OpResume),
		pn.xfer(op, sid), plain(jsonio.OpStats), plain(jsonio.OpClose),
	}
}

const stepsPerSession = 7

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// openSession starts a server and opens session sid on it; the first
// open on a manager is the cold one that builds the platform, runs the
// warm-up and fills the warm-snapshot cache.
func openSession(e *env, o *outcome, pn *planner, opt serve.Options, sid string) (*rpcServer, uint64, error) {
	srv, err := startServer(opt)
	if err != nil {
		return nil, 0, err
	}
	pl, err := play(e, o, srv.http(), []step{pn.open(0, sid)}, false)
	if err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, pl.resps[0].Cycle, nil
}

// runServeXfer measures the oracle call: one session, transfer after
// transfer over HTTP, each waiting for the previous answer.
func runServeXfer(e *env, name string) (*outcome, error) {
	z := e.sizes.Serve
	pn, err := newPlanner(z, e.seed)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceServeXfer(e, name, pn)
	}
	o := &outcome{}
	var cycle uint64
	srv, err := setUp(e, o, func() (s *rpcServer, err error) {
		s, cycle, err = openSession(e, o, pn, serve.Options{}, "x")
		return s, err
	}, func(s *rpcServer) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for s := 0; s < e.scale(z.XferSlices); s++ {
		plan := make([]step, z.XfersPerSlice)
		for i := range plan {
			plan[i] = pn.xfer(i, "x")
		}
		pl, err := play(e, o, srv.http(), plan, false)
		if err != nil {
			return nil, err
		}
		end := pl.resps[len(plan)-1].Cycle
		o.lat = append(o.lat, pl.lat)
		o.cyclesPerS = append(o.cyclesPerS, float64(end-cycle)/pl.wall.Seconds())
		o.opsPerS = append(o.opsPerS, float64(len(plan))/pl.wall.Seconds())
		cycle = end
	}
	o.heapMB = liveHeapMB()
	return o, nil
}

// traceServeXfer replays one request stream three ways on identical
// sessions — over HTTP, through serve.Handle on the wire frame, through
// Manager.Dispatch on the decoded request — so the differences price
// the transport and the codec, and a standalone twin of the session's
// platform prices the bare 64-cycle kernel step underneath.
func traceServeXfer(e *env, name string, pn *planner) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	lay := o.layer
	z := pn.z
	var plan []step
	for i := 0; i < e.scale(2)*z.XfersPerSlice; i++ {
		plan = append(plan, pn.xfer(i, "x"))
	}
	open := pn.open(0, "x")

	srv, err := startServer(serve.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	inproc := serve.NewManager(serve.Options{})
	defer inproc.Shutdown()
	direct := serve.NewManager(serve.Options{})
	defer direct.Shutdown()

	// The three replays advance in lockstep, request by request, so
	// that host drift over the run lands on all of them alike.
	vias := []via{srv.http(), viaHandle(inproc), viaDispatch(direct)}
	passes := make([]*played, len(vias))
	var start uint64
	for k, v := range vias {
		first, err := play(e, o, v, []step{open}, false)
		if err != nil {
			return nil, err
		}
		start = first.resps[0].Cycle
		passes[k] = newPlayed(len(plan))
	}
	for i, st := range plan {
		for k, v := range vias {
			e.rec.enable(k > 0 || i%2 == 0)
			if err := passes[k].call(e, v, i, st); err != nil {
				return nil, err
			}
		}
	}
	e.rec.enable(true)
	for k, v := range vias {
		passes[k].verify(o, v, plan)
	}
	for i, pl := range passes[1:] {
		same := true
		for k := range plan {
			same = same && bytes.Equal(pl.transcript[k], passes[0].transcript[k])
		}
		o.check(same, "%s: transcript of replay %d differs from the HTTP transcript", name, i+1)
	}

	p50 := func(pl *played) float64 { return median(durs(pl.lat, us)) }
	lay["http.transport_us"] = p50(passes[0]) - p50(passes[1])
	lay["jsonio.codec_us"] = p50(passes[1]) - p50(passes[2])
	lay["serve.dispatch_xfer_us"] = p50(passes[2])
	var latency float64
	for _, r := range passes[0].resps {
		latency += float64(r.Latency)
	}
	lay["trace.overhead_ratio"] = overheadRatio(passes[0].lat)
	perXfer := float64(passes[0].resps[len(plan)-1].Cycle-start) / float64(len(plan))
	lay["serve.cycles_per_xfer"] = perXfer
	lay["serve.xfer_latency_cycles"] = latency / float64(len(plan))
	lay["sim.cycles"] = perXfer * float64(len(plan))

	// The codec alone, on the recorded frames.
	d := e.rec.do("jsonio.decode", 0, func() {
		for _, st := range plan {
			if _, err = jsonio.DecodeServeRequest(st.frame); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	lay["jsonio.decode_ns"] = float64(d) / float64(len(plan))
	d = e.rec.do("jsonio.encode", 0, func() {
		for _, r := range passes[2].resps {
			jsonio.EncodeServeResponse(r)
		}
	})
	lay["jsonio.encode_ns"] = float64(d) / float64(len(plan))

	// The kernel alone: the polling chunk on a twin platform.
	twin, err := sessionTwin(e, z, lay)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	steps := make([]time.Duration, len(plan))
	for i := range steps {
		steps[i] = e.rec.do("engine.step64", i, func() { twin.RunCycles(64) })
	}
	lay["engine.step64_us"] = median(durs(steps, us))
	lay["serve.xfer_overhead_us"] = lay["serve.dispatch_xfer_us"] - lay["engine.step64_us"]*perXfer/64
	return o, nil
}

// sessionTwin builds, outside any manager, the platform a session runs
// on: sources scriptable, sinks trace-driven with last-latency
// tracking, warmed and statistics reset.
func sessionTwin(e *env, z serveSize, lay map[string]float64) (*platform.Platform, error) {
	spec, err := topology.ParseSpec(z.Topo)
	if err != nil {
		return nil, err
	}
	cfg, err := platform.NetConfig(platform.NetOptions{
		Topo: spec, Workload: z.Workload, Injection: z.Inj, Seed: e.seed, WorkloadSeed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	for i := range cfg.TGs {
		cfg.TGs[i].Scripted = true
		cfg.TGs[i].QueueFlits = 256
	}
	for i := range cfg.TRs {
		cfg.TRs[i].Mode = receptor.TraceDriven
		cfg.TRs[i].TrackLast = true
	}
	var p *platform.Platform
	d := e.rec.do("platform.build", 0, func() { p, err = platform.Build(cfg) })
	if err != nil {
		return nil, err
	}
	lay["platform.build_s"] = d.Seconds()
	d = e.rec.do("platform.warm", 0, func() { p.RunCycles(z.Warmup); p.ResetStats() })
	lay["platform.warm_s"] = d.Seconds()
	return p, nil
}

// runServeChurn measures the serve layer used for lifecycle: whole
// sessions back to back, with park files on disk. One op is one whole
// session, seven round trips: a single 90 us open over HTTP measures
// the host's wake-up latency more than the server.
func runServeChurn(e *env, name string) (*outcome, error) {
	z := e.sizes.Serve
	pn, err := newPlanner(z, e.seed)
	if err != nil {
		return nil, err
	}
	opt := serve.Options{ParkDir: filepath.Join(e.tmp, "park")}
	if e.trace {
		return traceServeChurn(e, name, pn, opt)
	}
	o := &outcome{}
	srv, err := setUp(e, o, func() (*rpcServer, error) { return primedServer(e, o, pn, opt) }, func(s *rpcServer) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for s := 0; s < e.scale(z.ChurnSlices); s++ {
		pl, err := play(e, o, srv.http(), churnPlan(pn, s, z.SessionsPerSlice), false)
		if err != nil {
			return nil, err
		}
		var sessions []time.Duration
		var cycles uint64
		for k := 0; k < len(pl.lat); k += stepsPerSession {
			var d time.Duration
			for _, l := range pl.lat[k : k+stepsPerSession] {
				d += l
			}
			sessions = append(sessions, d)
			cycles += pl.resps[k+stepsPerSession-2].Cycle - pl.resps[k].Cycle // stats answer − open answer
		}
		o.lat = append(o.lat, sessions)
		o.cyclesPerS = append(o.cyclesPerS, float64(cycles)/pl.wall.Seconds())
		o.opsPerS = append(o.opsPerS, float64(z.SessionsPerSlice)/pl.wall.Seconds())
	}
	o.heapMB = liveHeapMB()
	st := srv.m.Stats()
	o.check(st.LiveSessions == 0 && st.ParkedSessions == 0 && st.Opened == st.Closed,
		"%s: sessions left behind: %+v", name, st)
	return o, nil
}

// primedServer starts a server and runs one whole session on it, which
// fills the platform pool and the warm-snapshot cache.
func primedServer(e *env, o *outcome, pn *planner, opt serve.Options) (*rpcServer, error) {
	srv, err := startServer(opt)
	if err != nil {
		return nil, err
	}
	if _, err := play(e, o, srv.http(), pn.session(0, "prime"), false); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

func churnPlan(pn *planner, slice, sessions int) []step {
	var plan []step
	for i := 0; i < sessions; i++ {
		plan = append(plan, pn.session(i, fmt.Sprintf("s%d-%d", slice, i))...)
	}
	return plan
}

// traceServeChurn reports each lifecycle op's own p50, the manager's
// counters, the cold open, and — on a twin platform — the state
// operations park, resume and the platform pool are made of.
func traceServeChurn(e *env, name string, pn *planner, opt serve.Options) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	lay := o.layer
	z := pn.z
	srv, err := primedServer(e, o, pn, opt)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	perOp := map[string][]time.Duration{}
	var cycles uint64
	for s := 0; s < e.scale(4); s++ {
		plan := churnPlan(pn, s, z.SessionsPerSlice)
		pl, err := play(e, o, srv.http(), plan, true)
		if err != nil {
			return nil, err
		}
		for k, st := range plan {
			perOp[st.req.Op] = append(perOp[st.req.Op], pl.lat[k])
			if st.req.Op == jsonio.OpOpen {
				cycles += pl.resps[k+stepsPerSession-2].Cycle - pl.resps[k].Cycle
			}
		}
	}
	for op, metric := range map[string]string{
		jsonio.OpOpen: "serve.open_warm_us", jsonio.OpPark: "serve.park_us", jsonio.OpResume: "serve.resume_us",
		jsonio.OpStats: "serve.stats_us", jsonio.OpClose: "serve.close_us",
	} {
		lay[metric] = median(durs(perOp[op], us))
	}
	lay["trace.overhead_ratio"] = overheadRatio(perOp[jsonio.OpOpen]) // session i is op i: even ones traced
	lay["sim.cycles"] = float64(cycles)
	st := srv.m.Stats()
	lay["serve.warm_hits"] = float64(st.WarmHits)
	lay["serve.parked"] = float64(st.Parked)
	lay["serve.resumed"] = float64(st.Resumed)
	lay["serve.evicted"] = float64(st.Evicted)
	lay["serve.pooled_platforms"] = float64(st.PooledPlatforms)
	o.check(st.LiveSessions == 0 && st.ParkedSessions == 0 && st.Opened == st.Closed,
		"%s: sessions left behind: %+v", name, st)

	// The cold open: a fresh manager has neither pool nor warm cache.
	var cold []time.Duration
	for i := 0; i < z.ColdOpens; i++ {
		m := serve.NewManager(serve.Options{})
		pl, err := play(e, o, viaDispatch(m), []step{pn.open(i, "cold")}, false)
		if err != nil {
			return nil, err
		}
		cold = append(cold, pl.lat[0])
		if err := m.Shutdown(); err != nil {
			return nil, err
		}
	}
	lay["serve.open_cold_ms"] = median(durs(cold, ms))

	twin, err := sessionTwin(e, z, lay)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	return o, stateLayer(e, twin, lay)
}

// stateLayer times the snapshot, restore, full reset and 8-way fork of
// a small warmed platform: the operations behind warm opens, park and
// resume, and behind a sweep point's replicates.
func stateLayer(e *env, p *platform.Platform, lay map[string]float64) error {
	const reps = 20
	var snapT, restT, resetT []time.Duration
	var snap []byte
	var err error
	for i := 0; i < reps && err == nil; i++ {
		snapT = append(snapT, e.rec.do("platform.snapshot", i, func() { snap, err = p.SnapshotBytes() }))
	}
	for i := 0; i < reps && err == nil; i++ {
		resetT = append(resetT, e.rec.do("platform.fullreset", i, func() { err = p.FullReset() }))
		if err == nil {
			restT = append(restT, e.rec.do("platform.restore", i, func() { err = p.RestoreBytes(snap) }))
		}
	}
	if err != nil {
		return err
	}
	var forks []*platform.Platform
	d := e.rec.do("platform.fork8", 0, func() { forks, err = p.Fork(8) })
	if err != nil {
		return err
	}
	for _, f := range forks {
		f.Close()
	}
	lay["platform.snapshot_ms"] = median(durs(snapT, ms))
	lay["platform.restore_ms"] = median(durs(restT, ms))
	lay["platform.fullreset_ms"] = median(durs(resetT, ms))
	lay["platform.fork8_ms"] = ms(d)
	lay["state.snapshot_kb"] = float64(len(snap)) / 1024
	return nil
}
