package engine

// StandDownAlways makes a gated sequential engine stand its gates down
// after every probe window, however idle: the gated-standing-down walk
// of the contract tests (walks_test.go).
func StandDownAlways(e *Engine) { e.sched.duty.share = 0 }
