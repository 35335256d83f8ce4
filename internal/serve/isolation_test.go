package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nocemu/internal/jsonio"
)

// TestCrossSessionIsolation is the isolation acceptance check: a
// scripted client session must produce a byte-identical response
// transcript whether it runs alone on a fresh server or interleaved
// with 15 other concurrent sessions on a shared one. Run under
// `make race` this also exercises the manager's locking.
func TestCrossSessionIsolation(t *testing.T) {
	const n = 16
	// Solo baselines: each session alone on its own manager.
	solo := make([][]byte, n)
	for i := 0; i < n; i++ {
		m := NewManager(Options{})
		solo[i] = runScript(m, isolationScript(i))
		if err := m.Shutdown(); err != nil {
			t.Fatalf("solo shutdown %d: %v", i, err)
		}
	}
	// The same 16 scripts, concurrently on one shared manager.
	shared := NewManager(Options{})
	defer shared.Shutdown()
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runScript(shared, isolationScript(i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], solo[i]) {
			t.Errorf("session %d transcript differs from its solo run:\nshared: %s\nsolo:   %s",
				i, got[i], solo[i])
		}
	}
	st := shared.Stats()
	if st.LiveSessions != 0 || st.ParkedSessions != 0 {
		t.Fatalf("sessions left behind: %+v", st)
	}
}

// isolationScript is the canonical session script on a per-session
// platform mix: half the sessions run the pure scripted platform,
// half carry background uniform load; kernels vary too, since
// isolation must hold across platform shapes sharing one server.
func isolationScript(i int) []jsonio.ServeRequest {
	sid := fmt.Sprintf("iso-%02d", i)
	var sp *jsonio.ServePlatform
	if i%2 == 0 {
		sp = testPlatform(i%4 == 0, 16)
	} else {
		sp = loadedPlatform(false, 16)
	}
	return sessionScript(sid, sp, i)
}
