package engine

// StandDownAlways makes a gated sequential engine stand its gates down
// after every probe window, however idle: the gated-standing-down walk
// of the contract tests (walks_test.go).
func StandDownAlways(e *Engine) { e.sched.duty.share = 0 }

// CrewAlways keeps a gated engine's gates up for good and hires a crew
// for every run, one worker per arena element where the host and the
// budget have them: the gated-crew walk of the contract tests
// (walks_test.go, crew_test.go). A platform of any size then walks its
// gated cycles on a crew.
func CrewAlways(e *Engine) { e.sched.duty.share, e.sched.duty.span = 65, 1 }
