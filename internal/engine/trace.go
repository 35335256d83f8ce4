package engine

// SchedTrace receives kernel scheduling events — the probe subsystem's
// window into the gates of quiesce.go and the run loop's skips. Unlike the
// data-path events the probes emit, scheduling events describe the
// kernel rather than the emulated platform: which components park,
// when — never an arena, whose elements park one by one and silently —
// and how far the cycle counter fast-forwards legitimately
// depend on the kernel and gating choices, so consumers must not treat
// these events as emulation results.
//
// Implementations are called on the engine's own goroutine only: park
// and wake fire inside the gated walk, fast-forward in the run loop
// between two cycles. No locking is required: a run with a SchedTrace
// walks on a crew of one (duty.go, hire).
type SchedTrace interface {
	// SchedPark reports that the component was removed from the walk
	// at the end of the given cycle.
	SchedPark(cycle uint64, comp string)
	// SchedWake reports that the component rejoined the walk at the
	// given cycle.
	SchedWake(cycle uint64, comp string)
	// SchedFastForward reports a cycle-counter jump from from to to.
	SchedFastForward(from, to uint64)
}

// SetSchedTrace installs (or, with nil, removes) the scheduling-event
// consumer.
func (e *Engine) SetSchedTrace(t SchedTrace) { e.strace = t }
