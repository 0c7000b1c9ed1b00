//go:build race

package core

// raceEnabled lets the AllocsPerRun pin skip under the race detector,
// whose instrumentation perturbs allocation counts.
const raceEnabled = true
