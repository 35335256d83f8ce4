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
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"nocemu/internal/jsonio"
	"nocemu/internal/platform"
)

// Options tunes a Manager.
type Options struct {
	// MaxSessions caps live (un-parked) sessions; beyond it the least
	// recently used session is parked automatically (default 64).
	MaxSessions int
	// PoolPerKey is how many idle platforms the pool retains per
	// pool key — state plus kernel (default 2).
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

// Manager owns every session, the platform pool, the warm-snapshot
// store and the park store.
type Manager struct {
	opt   Options
	cache *platform.SnapStore
	park  *platform.SnapStore // one entry per parked session
	sem   chan struct{}

	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup // in-flight dispatches; Add under mu after the closed check
	sessions map[string]*session
	parked   map[string]bool // sessions this process parked or failed to resume
	pool     map[string][]*platform.Platform
	clock    uint64 // logical op counter driving LRU eviction

	nOpened, nClosed, nParked, nResumed, nEvicted uint64
}

// NewManager builds a session manager.
func NewManager(opt Options) *Manager {
	opt.applyDefaults()
	m := &Manager{
		opt:      opt,
		cache:    platform.NewSnapStore(opt.CacheDir),
		park:     platform.NewSnapStore(opt.ParkDir),
		sessions: map[string]*session{},
		parked:   map[string]bool{},
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
		WarmHits:        m.cache.Hits(),
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
	s := &session{id: req.Sid}
	s.mu.Lock()
	defer s.mu.Unlock()

	m.mu.Lock()
	if _, dup := m.sessions[req.Sid]; dup {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q already open", req.Sid)
		return
	}
	if m.parked[req.Sid] {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q is parked (resume it)", req.Sid)
		return
	}
	m.clock++
	s.lastOp = m.clock
	m.sessions[req.Sid] = s
	m.mu.Unlock()

	p, err := m.warmPlatform(s, *req.Platform)
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

// warmPlatform normalizes and keys the session's platform and acquires
// it in the warmed, statistics-reset state: through the warm-snapshot
// store, so only the first session of a state pays the warm-up.
func (m *Manager) warmPlatform(s *session, sp jsonio.ServePlatform) (*platform.Platform, error) {
	var err error
	if s.sp, err = normalizePlatform(sp); err != nil {
		return nil, err
	}
	pool, warm, err := sessionKeys(s.sp)
	if err != nil {
		return nil, err
	}
	s.key = pool
	acquire := func() (*platform.Platform, error) { return m.acquirePlatform(s.key, s.sp) }
	if s.sp.Warmup == 0 {
		return acquire()
	}
	return m.cache.Warm(warm, s.sp.Warmup, acquire)
}

// acquirePlatform pops a pooled platform for the pool key (already
// fully reset) or builds a new one.
func (m *Manager) acquirePlatform(key string, sp jsonio.ServePlatform) (*platform.Platform, error) {
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
	isParked := m.parked[req.Sid]
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
	entry, err := encodePark(parkHeader{Sid: s.id, Platform: s.sp, Cycle: s.bus.cycle()}, snap)
	if err == nil {
		err = m.park.Put(parkKey(s.id), entry)
	}
	if err != nil {
		m.park.Delete(parkKey(s.id)) // a failed Put still serves from memory
		return fmt.Errorf("serve: park session %q: %v", s.id, err)
	}
	p := s.p
	s.p, s.bus = nil, nil
	m.mu.Lock()
	delete(m.sessions, s.id)
	m.parked[s.id] = true
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
	ok := m.parked[sid]
	delete(m.parked, sid)
	if ok {
		m.nClosed++
	}
	m.mu.Unlock()
	if !ok {
		resp.Err = fmt.Sprintf("serve: unknown session %q", sid)
		return
	}
	m.park.Delete(parkKey(sid))
	resp.OK = true
}

// resume restores a parked session from the park store — its memory,
// or the park directory when the parking server has since restarted.
func (m *Manager) resume(req jsonio.ServeRequest, resp *jsonio.ServeResponse) {
	s := &session{id: req.Sid}
	s.mu.Lock()
	defer s.mu.Unlock()
	m.mu.Lock()
	if _, dup := m.sessions[req.Sid]; dup {
		m.mu.Unlock()
		resp.Err = fmt.Sprintf("serve: session %q already open", req.Sid)
		return
	}
	delete(m.parked, req.Sid)
	m.clock++
	s.lastOp = m.clock
	m.sessions[req.Sid] = s
	m.mu.Unlock()

	entry, found := m.park.Get(parkKey(req.Sid))
	fail := func(err error) {
		m.mu.Lock()
		delete(m.sessions, req.Sid)
		if found {
			m.parked[req.Sid] = true // the entry stays, so the client can retry
		}
		m.mu.Unlock()
		resp.Err = err.Error()
	}
	if !found {
		fail(fmt.Errorf("serve: no parked session %q", req.Sid))
		return
	}
	p, bv, err := m.unpark(s, entry)
	if err != nil {
		fail(err)
		return
	}
	m.park.Delete(parkKey(req.Sid))
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

// A parked session is one park-store entry, written by one Put and read
// by one Get: a header line naming the session, its normalized platform
// and the cycle it parked at, then the snapshot. JSON holds no raw
// newline, so the first one ends the header. Session ids hold arbitrary
// characters; the store hashes its keys into file names and the header
// records the id for verification.
type parkHeader struct {
	Sid      string               `json:"sid"`
	Platform jsonio.ServePlatform `json:"platform"`
	Cycle    uint64               `json:"cycle"`
}

func parkKey(sid string) string { return "park|" + sid }

func encodePark(h parkHeader, snap []byte) ([]byte, error) {
	b, err := json.Marshal(h)
	return append(append(b, '\n'), snap...), err
}

// unpark rebuilds a parked session from its entry: the header must name
// the session and a platform, the snapshot must restore into that
// platform, and the restored clock must read the header's cycle. On
// error nothing is held: the platform, if acquired, is closed.
func (m *Manager) unpark(s *session, entry []byte) (*platform.Platform, *busView, error) {
	head, snap, _ := bytes.Cut(entry, []byte{'\n'})
	var h parkHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, nil, fmt.Errorf("serve: park entry of session %q: %v", s.id, err)
	}
	if h.Sid != s.id {
		return nil, nil, fmt.Errorf("serve: park entry of session %q names session %q", s.id, h.Sid)
	}
	if h.Platform.Config == nil {
		return nil, nil, fmt.Errorf("serve: park entry of session %q has no platform", s.id)
	}
	s.sp = h.Platform
	var err error
	if s.key, _, err = sessionKeys(s.sp); err != nil {
		return nil, nil, err
	}
	p, err := m.acquirePlatform(s.key, s.sp)
	if err != nil {
		return nil, nil, err
	}
	var bv *busView
	if err = p.RestoreBytes(snap); err != nil {
		err = fmt.Errorf("serve: restore session %q: %v", s.id, err)
	} else if bv, err = newBusView(p); err == nil && bv.cycle() != h.Cycle {
		err = fmt.Errorf("serve: restore session %q: snapshot at cycle %d, parked at %d", s.id, bv.cycle(), h.Cycle)
	}
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	return p, bv, nil
}
