//go:build !race

package faults

const raceEnabled = false
