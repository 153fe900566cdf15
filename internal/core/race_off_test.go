//go:build !race

package core

// raceEnabled reports whether the race detector is active: the exact
// AllocsPerRun assertions skip under -race, whose instrumentation
// allocates on paths the pure build does not.
const raceEnabled = false
