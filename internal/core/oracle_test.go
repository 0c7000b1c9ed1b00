package core

import "github.com/mssn/loopscope/internal/trace"

// This file holds the batch loop scanner, the reference every parity
// test compares StreamDetector against: a direct transcription of
// Figure 4 over the complete key sequence, simple enough to check by
// reading.

// DetectAllHorizon finds every non-overlapping ON-OFF loop, scanning
// left to right, with the cycle length capped at horizon steps; 0 means
// uncapped. A semi-persistent loop may be followed by another loop. A
// StreamDetector with Horizon H must produce exactly the loops of
// DetectAllHorizon(tl, H) on the complete timeline.
func DetectAllHorizon(tl *trace.Timeline, horizon int) []*Loop {
	keys := make([]string, len(tl.Steps))
	for i, s := range tl.Steps {
		keys[i] = s.Set.Key()
	}
	n := len(keys)
	var loops []*Loop
	for k := 0; k < n; {
		l := detectAt(tl, keys, k, horizon)
		if l == nil {
			k++
			continue
		}
		loops = append(loops, l)
		k = l.End
	}
	return loops
}

// detectAt looks for a loop whose first cycle starts at step k. Per
// Figure 4 the cycle must start with a 5G-ON set and contain a 5G-OFF
// set; the shortest repeating cycle wins.
func detectAt(tl *trace.Timeline, keys []string, k, maxL int) *Loop {
	n := len(keys)
	if !tl.Steps[k].Set.Uses5G() {
		return nil
	}
	for L := 2; k+MinReps*L <= n && (maxL == 0 || L <= maxL); L++ {
		// The cycle must end with 5G OFF so that each repetition is an
		// ON→OFF→ON swing.
		if tl.Steps[k+L-1].Set.Uses5G() {
			continue
		}
		// Count how far the cyclic repetition extends.
		match := k
		for match < n && keys[match] == keys[k+(match-k)%L] {
			match++
		}
		reps := (match - k) / L
		if reps < MinReps {
			continue
		}
		form := FormSemiPersistent
		if match == n {
			form = FormPersistent
		}
		return LoopIn(tl, k, L, reps, match, form)
	}
	return nil
}

// oracleAnalysis is the reference Analysis: DetectAllHorizon, whose
// loops derive their keys, fingerprints and cycles through LoopIn, plus
// Classify re-run on every loop against the complete timeline.
func oracleAnalysis(tl *trace.Timeline, horizon int) Analysis {
	loops := DetectAllHorizon(tl, horizon)
	a := Analysis{Loops: loops, Subtypes: make([]Subtype, len(loops))}
	for i, l := range loops {
		a.Subtypes[i] = Classify(l)
	}
	return a
}
