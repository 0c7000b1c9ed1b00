//go:build !race

package racecheck

// Enabled is true in a binary built with -race.
const Enabled = false
