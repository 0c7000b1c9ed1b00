// Package racecheck tells a test whether it runs under the race
// detector, whose instrumentation perturbs allocation counts and slows
// code many times over, so allocation pins and wall-clock bounds skip
// under it.
package racecheck
