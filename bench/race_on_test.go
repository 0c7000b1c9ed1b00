//go:build race

package main

// raceEnabled lets the smoke test skip its time limit under the race
// detector, which slows the workloads several times over.
const raceEnabled = true
