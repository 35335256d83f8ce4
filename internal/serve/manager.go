// The session manager: multiplexes concurrent sessions over a pool of
// built platforms, warm-starts sessions from cached snapshots, parks
// idle sessions (snapshot to the park store, platform back to the
// pool) and resumes them — including across server restarts when a
// park directory is configured.
//
// Locking: m.mu guards the maps and is never held while running a
// platform; each session's mutex serializes its operations. A session
// mutex may be held while taking m.mu, never the reverse, so the two
// levels cannot deadlock.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"nocemu/internal/dse"
	"nocemu/internal/jsonio"
	"nocemu/internal/platform"
)

// Options tunes a Manager.
type Options struct {
	// MaxSessions caps live (un-parked) sessions; beyond it the least
	// recently used session is parked automatically (default 64).
	MaxSessions int
	// PoolPerKey is how many idle platforms the pool retains per
	// structural key (default 2).
	PoolPerKey int
	// CacheDir persists warm-up snapshots ("" = in-memory cache only).
	CacheDir string
	// ParkDir persists parked sessions so they survive a server
	// restart ("" = parked sessions live in memory only).
	ParkDir string
	// Workers caps concurrently dispatched requests (0 = unbounded).
	// Any value yields byte-identical per-session transcripts; the cap
	// only bounds platform memory in flight.
	Workers int
}

func (o *Options) applyDefaults() {
	if o.MaxSessions == 0 {
		o.MaxSessions = 64
	}
	if o.PoolPerKey == 0 {
		o.PoolPerKey = 2
	}
}

// parked is a session snapshotted out of its platform.
type parked struct {
	sp    jsonio.ServePlatform
	key   string
	snap  []byte
	cycle uint64
}

// parkMeta is the on-disk header beside a parked snapshot.
type parkMeta struct {
	Sid      string               `json:"sid"`
	Platform jsonio.ServePlatform `json:"platform"`
	Cycle    uint64               `json:"cycle"`
}

// Manager owns every session, the platform pool and the warm cache.
type Manager struct {
	opt   Options
	cache *dse.SnapCache
	sem   chan struct{}

	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup // in-flight dispatches; Add under mu after the closed check
	sessions map[string]*session
	parked   map[string]*parked
	pool     map[string][]*platform.Platform
	clock    uint64 // logical op counter driving LRU eviction

	nOpened, nClosed, nParked, nResumed, nEvicted uint64
}

// NewManager builds a session manager.
func NewManager(opt Options) *Manager {
	opt.applyDefaults()
	m := &Manager{
		opt:      opt,
		cache:    dse.NewSnapCache(opt.CacheDir),
		sessions: map[string]*session{},
		parked:   map[string]*parked{},
		pool:     map[string][]*platform.Platform{},
	}
	if opt.Workers > 0 {
		m.sem = make(chan struct{}, opt.Workers)
	}
	return m
}

// Stats is a point-in-time management summary.
type Stats struct {
	LiveSessions    int
	ParkedSessions  int
	PooledPlatforms int
	WarmHits        int
	Opened, Closed  uint64
	Parked, Resumed uint64
	Evicted         uint64
}

// Stats reports the manager's current counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	pooled := 0
	for _, l := range m.pool {
		pooled += len(l)
	}
	return Stats{
		LiveSessions:    len(m.sessions),
		ParkedSessions:  len(m.parked),
		PooledPlatforms: pooled,
		WarmHits:        m.cache.HitCount(),
		Opened:          m.nOpened,
		Closed:          m.nClosed,
		Parked:          m.nParked,
		Resumed:         m.nResumed,
		Evicted:         m.nEvicted,
	}
}

// Dispatch executes one request and returns its response. It is safe
// for concurrent use; requests for the same session serialize on the
// session, so each session's transcript is a deterministic function
// of its own request order.
func (m *Manager) Dispatch(req jsonio.ServeRequest) jsonio.ServeResponse {
	resp := jsonio.ServeResponse{V: jsonio.ServeVersion, ID: req.ID, Sid: req.Sid}
	if err := req.Validate(); err != nil {
		resp.Err = err.Error()
		return resp
	}
	if m.sem != nil {
		m.sem <- struct{}{}
		defer func() { <-m.sem }()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		resp.Err = "serve: server shutting down"
		return resp
	}
	m.wg.Add(1)
	m.mu.Unlock()
	defer m.wg.Done()

	switch req.Op {
	case jsonio.OpOpen:
		m.open(req, &resp)
	case jsonio.OpResume:
		m.resume(req, &resp)
	default:
		m.sessionOp(req, &resp)
	}
	return resp
}

// open creates a session: reserve the id, take a pooled (or freshly
// built) platform, warm it from the snapshot cache when possible.
func (m *Manager) open(req jsonio.ServeRequest, resp *jsonio.ServeResponse) {
	sp := normalizePlatform(*req.Platform)
	s := &session{id: req.Sid, sp: sp, key: structKey(sp)}
	s.mu.Lock()
	defer s.mu.Unlock()

	m.mu.Lock()
	if _, dup := m.sessions[req.Sid]; dup {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q already open", req.Sid)
		return
	}
	if _, dup := m.parked[req.Sid]; dup {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q is parked (resume it)", req.Sid)
		return
	}
	m.clock++
	s.lastOp = m.clock
	m.sessions[req.Sid] = s
	m.mu.Unlock()

	p, err := m.warmPlatform(sp)
	if err != nil {
		m.mu.Lock()
		delete(m.sessions, req.Sid)
		m.mu.Unlock()
		resp.Err = err.Error()
		return
	}
	bv, err := newBusView(p)
	if err != nil {
		p.Close()
		m.mu.Lock()
		delete(m.sessions, req.Sid)
		m.mu.Unlock()
		resp.Err = err.Error()
		return
	}
	s.p, s.bus = p, bv
	m.mu.Lock()
	m.nOpened++
	m.mu.Unlock()
	resp.OK = true
	resp.Cycle = bv.cycle()
	m.evictOverCap()
}

// warmPlatform acquires a platform for the description and brings it
// to the warmed, statistics-reset state — restored from the snapshot
// cache when a prior session already paid the warm-up, otherwise by
// running the warm-up and caching the result for the next session.
func (m *Manager) warmPlatform(sp jsonio.ServePlatform) (*platform.Platform, error) {
	p, err := m.acquirePlatform(sp)
	if err != nil {
		return nil, err
	}
	if sp.Warmup == 0 {
		return p, nil
	}
	wk := warmKey(sp)
	if snap, ok := m.cache.Get(wk); ok {
		if err := p.RestoreBytes(snap); err == nil {
			return p, nil
		}
		// A stale or foreign cache entry must not poison the session:
		// fall back to a fresh build and a replayed warm-up.
		p.Close()
		if p, err = buildPlatform(sp); err != nil {
			return nil, err
		}
	}
	p.RunCycles(sp.Warmup)
	p.ResetStats()
	if snap, err := p.SnapshotBytes(); err == nil {
		m.cache.Put(wk, snap)
	}
	return p, nil
}

// acquirePlatform pops a pooled platform for the structural key
// (already fully reset) or builds a new one.
func (m *Manager) acquirePlatform(sp jsonio.ServePlatform) (*platform.Platform, error) {
	key := structKey(sp)
	m.mu.Lock()
	if l := m.pool[key]; len(l) > 0 {
		p := l[len(l)-1]
		m.pool[key] = l[:len(l)-1]
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()
	return buildPlatform(sp)
}

// releasePlatform resets a platform to its as-built state and returns
// it to the pool (or closes it when the pool is full).
func (m *Manager) releasePlatform(key string, p *platform.Platform) {
	if err := p.FullReset(); err != nil {
		p.Close()
		return
	}
	m.mu.Lock()
	if !m.closed && len(m.pool[key]) < m.opt.PoolPerKey {
		m.pool[key] = append(m.pool[key], p)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	p.Close()
}

// sessionOp routes an operation to its live session.
func (m *Manager) sessionOp(req jsonio.ServeRequest, resp *jsonio.ServeResponse) {
	m.mu.Lock()
	s := m.sessions[req.Sid]
	if s != nil {
		m.clock++
		s.lastOp = m.clock
	}
	_, isParked := m.parked[req.Sid]
	m.mu.Unlock()
	if s == nil {
		switch {
		case isParked && req.Op == jsonio.OpClose:
			m.closeParked(req.Sid, resp)
		case isParked:
			resp.Err = fmt.Sprintf("serve: session %q is parked (resume it)", req.Sid)
		default:
			resp.Err = fmt.Sprintf("serve: unknown session %q", req.Sid)
		}
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p == nil {
		// The session left the live set (parked by the evictor or
		// closed) after this request fetched it.
		resp.Err = fmt.Sprintf("serve: session %q no longer live", req.Sid)
		return
	}
	var err error
	switch req.Op {
	case jsonio.OpInject:
		err = s.inject(req, resp)
	case jsonio.OpStep:
		s.p.RunCycles(req.Cycles)
	case jsonio.OpXfer:
		err = s.xfer(req, resp)
	case jsonio.OpStats:
		err = s.stats(resp)
	case jsonio.OpFlow:
		err = s.flowQuery(req, resp)
	case jsonio.OpPark:
		cyc := s.bus.cycle()
		err = m.parkLocked(s, false)
		if err == nil {
			resp.OK = true
			resp.Cycle = cyc // the cycle the snapshot will resume at
			return
		}
	case jsonio.OpClose:
		err = m.closeLocked(s)
		if err == nil {
			resp.OK = true
			return
		}
	default:
		err = fmt.Errorf("serve: unknown op %q", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
		return
	}
	resp.OK = true
	resp.Cycle = s.bus.cycle()
}

// parkLocked snapshots the session into the park store and releases
// its platform. Caller holds s.mu; s.p is non-nil. With evicted set
// the eviction counter is bumped instead of the park counter.
func (m *Manager) parkLocked(s *session, evicted bool) error {
	snap, err := s.p.SnapshotBytes()
	if err != nil {
		return fmt.Errorf("serve: snapshot session %q: %v", s.id, err)
	}
	pk := &parked{sp: s.sp, key: s.key, snap: snap, cycle: s.bus.cycle()}
	if m.opt.ParkDir != "" {
		if err := writeParkFiles(m.opt.ParkDir, s.id, pk); err != nil {
			return err
		}
	}
	p := s.p
	s.p, s.bus = nil, nil
	m.mu.Lock()
	delete(m.sessions, s.id)
	m.parked[s.id] = pk
	if evicted {
		m.nEvicted++
	} else {
		m.nParked++
	}
	m.mu.Unlock()
	m.releasePlatform(s.key, p)
	return nil
}

// closeLocked drains the session's platform, asserts no flit leaked,
// and returns the platform to the pool. Caller holds s.mu.
func (m *Manager) closeLocked(s *session) error {
	p := s.p
	s.p, s.bus = nil, nil
	m.mu.Lock()
	delete(m.sessions, s.id)
	m.nClosed++
	m.mu.Unlock()
	p.Drain()
	if live := p.Pool().Live(); live != 0 {
		p.Close()
		return fmt.Errorf("serve: session %q leaked %d flits", s.id, live)
	}
	m.releasePlatform(s.key, p)
	return nil
}

// closeParked discards a parked session without resuming it.
func (m *Manager) closeParked(sid string, resp *jsonio.ServeResponse) {
	m.mu.Lock()
	_, ok := m.parked[sid]
	delete(m.parked, sid)
	if ok {
		m.nClosed++
	}
	m.mu.Unlock()
	if !ok {
		resp.Err = fmt.Sprintf("serve: unknown session %q", sid)
		return
	}
	if m.opt.ParkDir != "" {
		removeParkFiles(m.opt.ParkDir, sid)
	}
	resp.OK = true
}

// resume restores a parked session — from memory, or from the park
// directory when the parking server has since restarted.
func (m *Manager) resume(req jsonio.ServeRequest, resp *jsonio.ServeResponse) {
	m.mu.Lock()
	if _, dup := m.sessions[req.Sid]; dup {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q already open", req.Sid)
		return
	}
	pk := m.parked[req.Sid]
	delete(m.parked, req.Sid)
	m.mu.Unlock()
	if pk == nil && m.opt.ParkDir != "" {
		pk = readParkFiles(m.opt.ParkDir, req.Sid)
	}
	if pk == nil {
		resp.Err = fmt.Sprintf("serve: no parked session %q", req.Sid)
		return
	}

	s := &session{id: req.Sid, sp: pk.sp, key: pk.key}
	s.mu.Lock()
	defer s.mu.Unlock()
	m.mu.Lock()
	m.clock++
	s.lastOp = m.clock
	m.sessions[req.Sid] = s
	m.mu.Unlock()

	fail := func(err error) {
		m.mu.Lock()
		delete(m.sessions, req.Sid)
		// Keep the parked state so the client can retry.
		m.parked[req.Sid] = pk
		m.mu.Unlock()
		resp.Err = err.Error()
	}
	p, err := m.acquirePlatform(pk.sp)
	if err != nil {
		fail(err)
		return
	}
	if err := p.RestoreBytes(pk.snap); err != nil {
		p.Close()
		fail(fmt.Errorf("serve: restore session %q: %v", req.Sid, err))
		return
	}
	bv, err := newBusView(p)
	if err != nil {
		p.Close()
		fail(err)
		return
	}
	if m.opt.ParkDir != "" {
		removeParkFiles(m.opt.ParkDir, req.Sid)
	}
	s.p, s.bus = p, bv
	m.mu.Lock()
	m.nResumed++
	m.mu.Unlock()
	resp.OK = true
	resp.Cycle = bv.cycle()
	m.evictOverCap()
}

// evictOverCap parks least-recently-used sessions until the live set
// fits MaxSessions. Eviction order follows the logical op clock, so
// under a serial request stream it is fully deterministic.
func (m *Manager) evictOverCap() {
	for {
		m.mu.Lock()
		if m.closed || len(m.sessions) <= m.opt.MaxSessions {
			m.mu.Unlock()
			return
		}
		var victim *session
		for _, s := range m.sessions {
			if victim == nil || s.lastOp < victim.lastOp {
				victim = s
			}
		}
		m.mu.Unlock()
		if victim == nil {
			return
		}
		victim.mu.Lock()
		if victim.p != nil {
			// A failed park leaves the session live; stop evicting
			// rather than spin on it.
			if err := m.parkLocked(victim, true); err != nil {
				victim.mu.Unlock()
				return
			}
		}
		victim.mu.Unlock()
	}
}

// Shutdown drains in-flight requests, parks every live session (to
// disk when a park directory is configured, so clients can resume
// after a restart), closes parked-only state and the platform pool.
// The manager rejects requests from the moment Shutdown is called.
func (m *Manager) Shutdown() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait() // no dispatch is or will be in flight past this point

	m.mu.Lock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	live := make([]*session, 0, len(ids))
	for _, id := range ids {
		live = append(live, m.sessions[id])
	}
	m.mu.Unlock()

	var firstErr error
	for _, s := range live {
		s.mu.Lock()
		if s.p == nil {
			s.mu.Unlock()
			continue
		}
		var err error
		if m.opt.ParkDir == "" {
			err = m.closeLocked(s)
		} else if err = m.parkLocked(s, false); err != nil {
			// A failed park leaves the session live; it ends with the
			// process, so its platform is released here.
			s.p.Close()
			s.p, s.bus = nil, nil
		}
		s.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	m.mu.Lock()
	pools := m.pool
	m.pool = map[string][]*platform.Platform{}
	m.sessions = map[string]*session{}
	m.mu.Unlock()
	for _, l := range pools {
		for _, p := range l {
			p.Close()
		}
	}
	return firstErr
}

// parkPath names a parked session's files. Session ids hold arbitrary
// characters, so the stem is the FNV-1a 64 hash of the id (the meta
// file records the id for verification).
func parkPath(dir, sid string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(sid); i++ {
		h ^= uint64(sid[i])
		h *= prime64
	}
	return filepath.Join(dir, fmt.Sprintf("%016x.park", h))
}

// writeParkFiles persists a parked session atomically (tmp + rename
// per file; the meta file is written last so a torn park never
// presents a meta without its snapshot).
func writeParkFiles(dir, sid string, pk *parked) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: park dir: %v", err)
	}
	stem := parkPath(dir, sid)
	if err := atomicWrite(stem+".nocsnap", pk.snap); err != nil {
		return fmt.Errorf("serve: park session %q: %v", sid, err)
	}
	meta, err := json.Marshal(parkMeta{Sid: sid, Platform: pk.sp, Cycle: pk.cycle})
	if err != nil {
		return fmt.Errorf("serve: park session %q: %v", sid, err)
	}
	if err := atomicWrite(stem+".json", meta); err != nil {
		return fmt.Errorf("serve: park session %q: %v", sid, err)
	}
	return nil
}

func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readParkFiles loads a parked session from disk, or nil when absent
// or torn.
func readParkFiles(dir, sid string) *parked {
	stem := parkPath(dir, sid)
	metaBytes, err := os.ReadFile(stem + ".json")
	if err != nil {
		return nil
	}
	var meta parkMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil || meta.Sid != sid {
		return nil
	}
	snap, err := os.ReadFile(stem + ".nocsnap")
	if err != nil {
		return nil
	}
	sp := normalizePlatform(meta.Platform)
	return &parked{sp: sp, key: structKey(sp), snap: snap, cycle: meta.Cycle}
}

func removeParkFiles(dir, sid string) {
	stem := parkPath(dir, sid)
	os.Remove(stem + ".json")
	os.Remove(stem + ".nocsnap")
}
