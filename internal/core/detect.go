// Package core implements the paper's primary contribution: detection
// of 5G ON-OFF loops in serving-cell-set sequences (Fig. 4),
// classification of loop instances into the seven sub-types of §5
// (S1E1/S1E2/S1E3, N1E1/N1E2, N2E1/N2E2), per-cycle impact metrics
// (§4.3), and the loop-probability prediction model of §6.
package core

import (
	"fmt"
	"time"

	"github.com/mssn/loopscope/internal/trace"
)

// Form is the sequence form of Figure 4.
type Form uint8

// The three sequence forms.
const (
	FormNoLoop         Form = iota // (I) no loop
	FormPersistent                 // (II-P) ends inside the loop
	FormSemiPersistent             // (II-SP) exits the loop
)

// String names the form the way the paper's legends do.
func (f Form) String() string {
	switch f {
	case FormNoLoop:
		return "I (no loop)"
	case FormPersistent:
		return "II-P"
	case FormSemiPersistent:
		return "II-SP"
	default:
		return fmt.Sprintf("Form(%d)", uint8(f))
	}
}

// Loop is one detected ON-OFF loop: a subsequence of serving cell sets
// that starts 5G ON, ends 5G OFF, and repeats at least twice.
type Loop struct {
	// Start is the timeline step index where the first cycle begins.
	Start int
	// CycleLen is the number of steps per cycle.
	CycleLen int
	// Reps is the number of complete repetitions observed.
	Reps int
	// End is the step index one past the matched (possibly partial)
	// repetition region.
	End int
	// Form is II-P or II-SP.
	Form Form
	// Timeline is the sequence the loop was found in.
	Timeline *trace.Timeline
}

// CycleKeys returns the canonical cell-set keys of one cycle.
func (l *Loop) CycleKeys() []string {
	keys := l.Timeline.Keys()
	return keys[l.Start : l.Start+l.CycleLen]
}

// Fingerprint identifies the loop by its cycle's cell-set membership,
// independent of when it was observed: two runs at the same location
// that traverse the same serving-cell-set cycle share a fingerprint.
// The paper uses exactly this notion when it confirms that loops
// observed at different locations "are indeed independent per location"
// (§4.1) and when it re-identifies a loop instance across runs (§6).
func (l *Loop) Fingerprint() string { return fingerprintKeys(l.CycleKeys()) }

// fingerprintKeys hashes one cycle's keys (FNV-1a), rotated to a
// canonical start so the fingerprint does not depend on which set the
// detector anchored on. The canonical rotation is the lexicographically
// least rotation of the whole key sequence: anchoring on the smallest
// single key alone is ambiguous when that key appears more than once in
// the cycle (e.g. A B A C vs its rotation A C A B), and two rotations
// of the same cycle would then hash differently, breaking cross-run
// loop re-identification (§6).
func fingerprintKeys(keys []string) string {
	if len(keys) == 0 {
		return "loop:empty"
	}
	start := 0
	for i := 1; i < len(keys); i++ {
		if rotationLess(keys, i, start) {
			start = i
		}
	}
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= '|'
		h *= 1099511628211
	}
	for i := 0; i < len(keys); i++ {
		mix(keys[(start+i)%len(keys)])
	}
	return fmt.Sprintf("loop:%016x", h)
}

// rotationLess reports whether the rotation of keys starting at a is
// lexicographically smaller (element-wise) than the one starting at b.
func rotationLess(keys []string, a, b int) bool {
	n := len(keys)
	for i := 0; i < n; i++ {
		ka, kb := keys[(a+i)%n], keys[(b+i)%n]
		if ka != kb {
			return ka < kb
		}
	}
	return false
}

// MinReps is the minimum number of repetitions for a subsequence to
// count as a loop ("repeatedly observed twice or more", §4.1).
const MinReps = 2

// CycleMetrics quantifies one repetition of a loop (§4.3, Fig. 10).
type CycleMetrics struct {
	Start time.Duration // cycle start (5G ON)
	On    time.Duration // time with 5G in use within the cycle
	Off   time.Duration // time without 5G within the cycle
}

// Cycle returns On+Off, the full ON-OFF cycle time.
func (c CycleMetrics) Cycle() time.Duration { return c.On + c.Off }

// OffRatio returns Off/(On+Off), the paper's OFF-time ratio.
func (c CycleMetrics) OffRatio() float64 {
	total := c.Cycle()
	if total == 0 {
		return 0
	}
	return float64(c.Off) / float64(total)
}

// Cycles computes the per-repetition metrics of a loop. Only complete
// repetitions are returned.
func (l *Loop) Cycles() []CycleMetrics {
	out := make([]CycleMetrics, 0, l.Reps)
	for r := 0; r < l.Reps; r++ {
		startIdx := l.Start + r*l.CycleLen
		endIdx := l.Start + (r+1)*l.CycleLen
		start := l.Timeline.Steps[startIdx].At
		var end time.Duration
		if endIdx < len(l.Timeline.Steps) {
			end = l.Timeline.Steps[endIdx].At
		} else {
			end = l.Timeline.Duration
		}
		// A truncated capture can carry a Duration shorter than the last
		// step's timestamp; clamp the final repetition's end to the cycle
		// start and to the ON time actually observed so Off is never
		// negative.
		if end < start {
			end = start
		}
		on := l.Timeline.TimeIn5G(start, end)
		if end < start+on {
			end = start + on
		}
		out = append(out, CycleMetrics{Start: start, On: on, Off: end - start - on})
	}
	return out
}

// OffTransition returns the step inside the first cycle where 5G turns
// off, which carries the trigger evidence the classifier reads. The
// boolean is false for malformed loops (never happens for Analyze
// output).
func (l *Loop) OffTransition() (trace.Step, bool) {
	for i := l.Start; i < l.Start+l.CycleLen && i < len(l.Timeline.Steps); i++ {
		prevOn := i > 0 && l.Timeline.Steps[i-1].Set.Uses5G()
		if prevOn && !l.Timeline.Steps[i].Set.Uses5G() {
			return l.Timeline.Steps[i], true
		}
	}
	return trace.Step{}, false
}

// PreOffState returns the serving-cell state immediately before the
// first OFF transition (5G SA vs 5G NSA decides S vs N types).
func (l *Loop) PreOffState() (trace.Step, bool) {
	for i := l.Start; i < l.Start+l.CycleLen && i < len(l.Timeline.Steps); i++ {
		prevOn := i > 0 && l.Timeline.Steps[i-1].Set.Uses5G()
		if prevOn && !l.Timeline.Steps[i].Set.Uses5G() {
			return l.Timeline.Steps[i-1], true
		}
	}
	return trace.Step{}, false
}
