//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
