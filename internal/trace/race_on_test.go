//go:build race

package trace

// raceEnabled lets the wall-clock bound skip under the race detector,
// whose instrumentation slows the extractor many times over.
const raceEnabled = true
