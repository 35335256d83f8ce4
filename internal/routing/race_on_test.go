//go:build race

package routing

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
