package serve

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/jsonio"
)

// parkSession opens sid on sp, runs it some cycles and parks it,
// returning its park entry split into header and snapshot.
func parkSession(t *testing.T, m *Manager, sid string, sp *jsonio.ServePlatform) (parkHeader, []byte) {
	t.Helper()
	open := req(1, jsonio.OpOpen, sid)
	open.Platform = sp
	step := req(2, jsonio.OpStep, sid)
	step.Cycles = 50
	for _, r := range []jsonio.ServeRequest{open, step, req(3, jsonio.OpPark, sid)} {
		if resp := m.Dispatch(r); !resp.OK {
			t.Fatalf("%s %s: %s", r.Op, sid, resp.Err)
		}
	}
	entry, ok := m.park.Get(parkKey(sid))
	if !ok {
		t.Fatalf("no park entry for %s", sid)
	}
	head, snap, _ := bytes.Cut(entry, []byte{'\n'})
	var h parkHeader
	if err := json.Unmarshal(head, &h); err != nil {
		t.Fatalf("park header of %s: %v", sid, err)
	}
	return h, snap
}

// parkFiles counts the entries in a park directory.
func parkFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestHostileParkEntries resumes sessions whose park entry was torn or
// tampered with, from memory and from a park directory read by a fresh
// manager. Each resume must fail with a serve error and leave nothing
// live; the session stays parked, so a retry fails the same way and a
// close discards it along with its single entry. The intact entry
// resumes at its parked cycle under the same harness, and the resume
// deletes it.
func TestHostileParkEntries(t *testing.T) {
	// A snapshot of another platform shape.
	other := NewManager(Options{})
	_, foreign := parkSession(t, other, "other", &jsonio.ServePlatform{Topo: "mesh:w=3,h=3"})
	other.Shutdown()

	header := func(h parkHeader) []byte {
		b, _ := json.Marshal(h) // plain values and a script-only config always marshal
		return b
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, []byte{'\n'}) }
	cases := []struct {
		name   string
		want   string // in the resume error; "" for the intact entry
		mutate func(h parkHeader, snap []byte) []byte
	}{
		{"intact", "", func(h parkHeader, snap []byte) []byte { return join(header(h), snap) }},
		{"truncated", "restore session", func(h parkHeader, snap []byte) []byte { return join(header(h), snap[:len(snap)/2]) }},
		{"header only", "restore session", func(h parkHeader, snap []byte) []byte { return header(h) }},
		{"garbage header", "park entry", func(h parkHeader, snap []byte) []byte { return join([]byte("{garbage"), snap) }},
		{"other sid", `names session "intruder"`, func(h parkHeader, snap []byte) []byte {
			h.Sid = "intruder"
			return join(header(h), snap)
		}},
		{"no platform", "has no platform", func(h parkHeader, snap []byte) []byte {
			h.Platform = jsonio.ServePlatform{}
			return join(header(h), snap)
		}},
		{"other shape", "restore session", func(h parkHeader, snap []byte) []byte { return join(header(h), foreign) }},
		{"cycle disagrees", "parked at", func(h parkHeader, snap []byte) []byte {
			h.Cycle++
			return join(header(h), snap)
		}},
	}
	for _, onDisk := range []bool{false, true} {
		for _, c := range cases {
			name := "memory/" + c.name
			if onDisk {
				name = "park-dir/" + c.name
			}
			t.Run(name, func(t *testing.T) {
				var opt Options
				if onDisk {
					opt.ParkDir = t.TempDir()
				}
				m := NewManager(opt)
				h, snap := parkSession(t, m, "p", testPlatform(0, false, 16))
				if err := m.park.Put(parkKey("p"), c.mutate(h, snap)); err != nil {
					t.Fatal(err)
				}
				if onDisk {
					if n := parkFiles(t, opt.ParkDir); n != 1 {
						t.Fatalf("park dir holds %d files for one parked session", n)
					}
					m.Shutdown()
					m = NewManager(opt) // resume reads the directory
				}
				defer m.Shutdown()
				pooled := m.Stats().PooledPlatforms

				r := m.Dispatch(req(4, jsonio.OpResume, "p"))
				if c.want == "" {
					if !r.OK || r.Cycle != h.Cycle {
						t.Fatalf("intact resume: %+v, want ok at cycle %d", r, h.Cycle)
					}
					if _, ok := m.park.Get(parkKey("p")); ok || (onDisk && parkFiles(t, opt.ParkDir) != 0) {
						t.Fatal("resume left the park entry behind")
					}
					if r := m.Dispatch(req(5, jsonio.OpClose, "p")); !r.OK {
						t.Fatalf("close: %s", r.Err)
					}
					return
				}
				if r.OK || !strings.HasPrefix(r.Err, "serve: ") || !strings.Contains(r.Err, c.want) {
					t.Fatalf("resume: %+v, want a serve error containing %q", r, c.want)
				}
				st := m.Stats()
				if st.LiveSessions != 0 || st.ParkedSessions != 1 || st.PooledPlatforms > pooled {
					t.Fatalf("after failed resume: %+v, want nothing live, one parked, at most %d pooled", st, pooled)
				}
				if again := m.Dispatch(req(5, jsonio.OpResume, "p")); again.Err != r.Err {
					t.Fatalf("retry: %+v, want the same error %q", again, r.Err)
				}
				if r := m.Dispatch(req(6, jsonio.OpClose, "p")); !r.OK {
					t.Fatalf("close of the parked session: %s", r.Err)
				}
				if _, ok := m.park.Get(parkKey("p")); ok {
					t.Fatal("close left the park entry behind")
				}
				if st := m.Stats(); st.LiveSessions != 0 || st.ParkedSessions != 0 {
					t.Fatalf("after close: %+v", st)
				}
				if onDisk {
					if n := parkFiles(t, opt.ParkDir); n != 0 {
						t.Fatalf("park dir holds %d files after close", n)
					}
				}
			})
		}
	}
}
