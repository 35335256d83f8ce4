// Warm starts (DESIGN.md §13): the keyed snapshot store and the one
// restore-or-warm step behind sweep points and serve sessions.
package platform

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SnapStore holds snapshots by key: in memory and, given a directory,
// as <fnv64a(key)>.nocsnap files that outlive the process. The key is
// the only guard against foreign state — Restore checks platform name
// and section shape, so a well-formed snapshot of another seed or
// warm-up restores cleanly — and must name all the state depends on.
type SnapStore struct {
	dir  string
	hits atomic.Int64 // warm-ups Warm skipped

	mu  sync.Mutex
	mem map[string][]byte
}

// NewSnapStore builds a store; an empty dir keeps it in memory only.
func NewSnapStore(dir string) *SnapStore {
	return &SnapStore{dir: dir, mem: map[string][]byte{}}
}

// path maps a key to its file; keys hold characters unfit for names.
func (s *SnapStore) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%016x.nocsnap", h.Sum64()))
}

// Get returns the entry stored under key.
func (s *SnapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.mem[key]; ok {
		return b, true
	}
	if s.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	s.mem[key] = b
	return b, true
}

// Put stores an entry. The file is written whole and renamed into
// place, so a killed process never leaves a torn entry; on error the
// entry still serves from memory.
func (s *SnapStore) Put(key string, b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = b
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := s.path(key)
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// Delete drops an entry; a missing one is not an error.
func (s *SnapStore) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, key)
	if s.dir != "" {
		os.Remove(s.path(key))
	}
}

// Hits counts the warm-ups Warm skipped by restoring a stored snapshot.
func (s *SnapStore) Hits() int { return int(s.hits.Load()) }

// Warm returns a platform from build in the state key names: cycles of
// warm-up run and excluded from statistics. A stored snapshot replaces
// the warm-up; one that fails to restore (torn, or of another shape)
// leaves the platform undefined, so it is closed and rebuilt. A freshly
// warmed state is stored best effort: a store that cannot write costs
// a later caller its warm-up, never a result.
func (s *SnapStore) Warm(key string, cycles uint64, build func() (*Platform, error)) (*Platform, error) {
	p, err := build()
	if err != nil {
		return nil, err
	}
	if snap, ok := s.Get(key); ok {
		if p.RestoreBytes(snap) == nil {
			s.hits.Add(1)
			return p, nil
		}
		p.Close()
		if p, err = build(); err != nil {
			return nil, err
		}
	}
	p.RunCycles(cycles)
	p.ResetStats()
	if snap, err := p.SnapshotBytes(); err == nil {
		_ = s.Put(key, snap) // best effort, see above
	}
	return p, nil
}
