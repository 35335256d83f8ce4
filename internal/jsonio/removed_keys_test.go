package jsonio

import (
	"encoding/json"
	"strings"
	"testing"
)

// withKey is v's JSON object with key set to 2.
func withKey(t *testing.T, v any, key string) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	m[key] = 2
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKernelWorkerKeysRejected: a platform file, a serve open (shorthand
// and inline config) and a sweep file that still carry a kernel worker
// count fail to decode with an error naming the key — the kernel picks
// its crews itself, and a strict decoder neither drops the key silently
// nor takes it for another. A sweep's own "workers" stays valid.
func TestKernelWorkerKeysRejected(t *testing.T) {
	file := withKey(t, Example(), "workers")
	for _, tc := range []struct {
		name, key string
		decode    func() error
	}{
		{"file", "workers", func() error {
			_, _, err := load(strings.NewReader(file), "")
			return err
		}},
		{"serve-open", "workers", func() error {
			_, err := DecodeServeRequest([]byte(`{"v":1,"op":"open","sid":"s","platform":{"topo":"mesh:w=2,h=2","workers":2}}`))
			return err
		}},
		{"serve-open-inline", "workers", func() error {
			_, err := DecodeServeRequest([]byte(`{"v":1,"op":"open","sid":"s","platform":{"config":` + file + `}}`))
			return err
		}},
		{"sweep", "platform_workers", func() error {
			_, err := LoadSweep(strings.NewReader(withKey(t, sweepExample(), "platform_workers")), "")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode()
			if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
				t.Errorf("decode error %v, want one naming %q", err, tc.key)
			}
		})
	}
	if _, err := LoadSweep(strings.NewReader(withKey(t, sweepExample(), "workers")), ""); err != nil {
		t.Errorf("a sweep's own workers: %v", err)
	}
}
