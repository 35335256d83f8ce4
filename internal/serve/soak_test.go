package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nocemu/internal/jsonio"
)

// TestSessionChurnSoak churns many short-lived sessions over a small
// bounded pool: open, traffic, park, resume, close, round after
// round. It pins the resource accounting — every close passes the
// flit-pool leak assertion (a leaked flit fails the close response),
// the platform pool stays within its cap, no session state survives
// its close, and the goroutine count returns to baseline (parallel
// platforms hold worker pools that must be torn down or re-pooled).
func TestSessionChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	baseline := runtime.NumGoroutine()
	m := NewManager(Options{MaxSessions: 4, PoolPerKey: 2})
	const rounds = 3
	const perRound = 6
	for round := 0; round < rounds; round++ {
		sids := make([]string, perRound)
		for i := range sids {
			sids[i] = fmt.Sprintf("soak-%d-%d", round, i)
			open := req(1, jsonio.OpOpen, sids[i])
			// Alternate kernels so pooled platforms of both shapes churn.
			open.Platform = testPlatform(false, 8)
			if r := m.Dispatch(open); !r.OK {
				t.Fatalf("round %d open %s: %s", round, sids[i], r.Err)
			}
			inject := req(2, jsonio.OpInject, sids[i])
			inject.Src, inject.Dst, inject.Bytes, inject.Count = uint16(i%4), uint16(4+(i+1)%4), 32, 2
			if r := m.Dispatch(inject); !r.OK {
				t.Fatalf("round %d inject %s: %s", round, sids[i], r.Err)
			}
		}
		// Half the sessions run their traffic out; the other half are
		// closed with flits still queued — Drain must reclaim them.
		for i, sid := range sids {
			if i%2 == 0 {
				step := req(3, jsonio.OpStep, sid)
				step.Cycles = 300
				if r := m.Dispatch(step); r.Err != "" && r.Err != fmt.Sprintf("serve: session %q is parked (resume it)", sid) {
					t.Fatalf("round %d step %s: %s", round, sid, r.Err)
				}
			}
		}
		// Park whatever is still live, resume, then close everything.
		for _, sid := range sids {
			r := m.Dispatch(req(4, jsonio.OpPark, sid))
			if !r.OK && r.Err != fmt.Sprintf("serve: session %q is parked (resume it)", sid) {
				t.Fatalf("round %d park %s: %s", round, sid, r.Err)
			}
		}
		for _, sid := range sids {
			if r := m.Dispatch(req(5, jsonio.OpResume, sid)); !r.OK {
				t.Fatalf("round %d resume %s: %s", round, sid, r.Err)
			}
			// The close response carries the Pool.Live()==0 assertion:
			// a session that leaked flits fails here.
			if r := m.Dispatch(req(6, jsonio.OpClose, sid)); !r.OK {
				t.Fatalf("round %d close %s: %s", round, sid, r.Err)
			}
		}
		st := m.Stats()
		if st.LiveSessions != 0 {
			t.Fatalf("round %d: %d sessions survived their close", round, st.LiveSessions)
		}
		if st.PooledPlatforms > 2*2 {
			t.Fatalf("round %d: pool grew past its cap: %+v", round, st)
		}
	}
	st := m.Stats()
	if st.Opened != rounds*perRound || st.Closed != rounds*perRound {
		t.Fatalf("final counters: %+v, want %d opened and closed", st, rounds*perRound)
	}
	if st.ParkedSessions != 0 {
		t.Fatalf("parked sessions left: %+v", st)
	}
	if err := m.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Parallel platforms own goroutine pools; after shutdown every one
	// must be gone. Allow the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after soak", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
