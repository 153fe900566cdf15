//go:build race

package core

// raceEnabled mirrors race_off_test.go with the race detector active.
const raceEnabled = true
