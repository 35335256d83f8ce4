//go:build !race

package engine

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it (instrumentation perturbs allocation
// counts and the long warm-up adds minutes for no signal).
const raceEnabled = false
