//go:build race

package checkpoint

// raceEnabled lets the AllocsPerRun pin skip under the race detector,
// whose instrumentation perturbs allocation counts.
const raceEnabled = true
