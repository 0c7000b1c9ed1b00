//go:build race

package faults

// raceEnabled lets the timing-bound test skip under the race detector,
// whose instrumentation distorts the relative cost it measures.
const raceEnabled = true
