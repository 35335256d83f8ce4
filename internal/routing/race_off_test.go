//go:build !race

package routing

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (instrumentation perturbs allocation
// counts).
const raceEnabled = false
