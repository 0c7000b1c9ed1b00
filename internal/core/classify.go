package core

import (
	"fmt"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/trace"
)

// LoopType is one of the paper's three loop types (F7).
type LoopType uint8

// The three loop types of Figure 13.
const (
	TypeUnknown LoopType = iota
	TypeS1               // 5G SA ⇄ IDLE
	TypeN1               // 5G NSA ⇄ IDLE* (IDLE + transient 4G)
	TypeN2               // 5G NSA ⇄ 4G
)

// String names the type.
func (t LoopType) String() string {
	switch t {
	case TypeS1:
		return "S1"
	case TypeN1:
		return "N1"
	case TypeN2:
		return "N2"
	default:
		// TypeUnknown (and any corrupted value) renders as the paper's
		// placeholder for unclassifiable instances.
		return "?"
	}
}

// Subtype is one of the seven loop sub-types of §5.
type Subtype uint8

// Loop sub-types with their paper-given triggers.
const (
	SubtypeUnknown Subtype = iota
	S1E1                   // SCell measurement configured but never reported
	S1E2                   // SCell reported very poor, no corrective command
	S1E3                   // SCell modification commanded but fails
	N1E1                   // 4G PCell radio link failure
	N1E2                   // 4G PCell handover failure
	N2E1                   // successful 4G handover drops the SCG
	N2E2                   // SCG failure handling
)

// String names the sub-type the way the paper labels it.
func (s Subtype) String() string {
	switch s {
	case S1E1:
		return "S1E1"
	case S1E2:
		return "S1E2"
	case S1E3:
		return "S1E3"
	case N1E1:
		return "N1E1"
	case N1E2:
		return "N1E2"
	case N2E1:
		return "N2E1"
	case N2E2:
		return "N2E2"
	default:
		// SubtypeUnknown and corrupted values print numerically so a
		// classification gap is visible rather than mislabelled.
		return fmt.Sprintf("Subtype(%d)", uint8(s))
	}
}

// Type returns the sub-type's loop type.
func (s Subtype) Type() LoopType {
	switch s {
	case S1E1, S1E2, S1E3:
		return TypeS1
	case N1E1, N1E2:
		return TypeN1
	case N2E1, N2E2:
		return TypeN2
	default:
		// SubtypeUnknown is the only remaining declared value: an
		// unclassified loop belongs to no Figure-13 FSM.
		return TypeUnknown
	}
}

// AllSubtypes lists the seven sub-types in presentation order.
var AllSubtypes = []Subtype{S1E1, S1E2, S1E3, N1E1, N1E2, N2E1, N2E2}

// Classify determines the loop's sub-type following the FSM typing of
// Figure 13 and the trigger analysis of Figures 14/15. The whole first
// cycle is examined, because a cycle can chain several procedures (the
// Fig. 31 N1E2 instance passes through a handover before the
// re-establishment that defines it):
//
//	master RAT is NR (5G SA ⇄ IDLE)            → S1
//	  exception (SCell-modification failure)    → S1E3
//	  release with never-reported serving SCell → S1E1
//	  release with very poor reported SCell     → S1E2
//	master RAT is LTE, cycle reaches IDLE       → N1
//	  re-establishment cause handoverFailure    → N1E2
//	  otherwise (radio link failure)            → N1E1
//	master RAT is LTE, never IDLE               → N2
//	  SCG failure handling present              → N2E2
//	  successful handover dropping the SCG      → N2E1
func Classify(l *Loop) Subtype {
	pre, ok := l.PreOffState()
	if !ok {
		return SubtypeUnknown
	}
	steps := l.Timeline.Steps[l.Start : l.Start+l.CycleLen]

	if pre.Set.State() == cell.State5GSA {
		var unmeasured, poor bool
		for _, st := range steps {
			switch st.Evidence.Kind {
			case trace.CauseException:
				return S1E3
			case trace.CauseRRCRelease, trace.CauseReestablishment:
				unmeasured = unmeasured || len(st.Evidence.UnmeasuredSCells) > 0
				poor = poor || len(st.Evidence.PoorSCells) > 0
			case trace.CauseNone, trace.CauseSCGRelease, trace.CauseHandoverNoSCG:
				// CauseNone carries no failure evidence; the SCG causes
				// are NSA-only (§5.3) and cannot occur while the master
				// RAT is NR — an SA cycle classifies on the three S1
				// triggers above alone.
			}
		}
		if unmeasured {
			return S1E1
		}
		if poor {
			return S1E2
		}
		return SubtypeUnknown
	}

	// NSA: N1 when the cycle passes through IDLE, N2 otherwise.
	var reachesIdle, handoverFail, scgFail, handoverDrop bool
	for _, st := range steps {
		if st.Set.IsIdle() {
			reachesIdle = true
		}
		switch st.Evidence.Kind {
		case trace.CauseReestablishment:
			reachesIdle = true
			if st.Evidence.ReestCause == rrc.ReestHandoverFailure {
				handoverFail = true
			}
		case trace.CauseSCGRelease:
			scgFail = true
		case trace.CauseHandoverNoSCG:
			handoverDrop = true
		case trace.CauseRRCRelease:
			reachesIdle = true
		case trace.CauseNone, trace.CauseException:
			// CauseNone transitions gain or rearrange cells without a
			// failure; the SCell-modification exception is SA-only
			// (S1E3, §5.1) and cannot steer an NSA cycle's N1/N2 split.
		}
	}
	switch {
	case reachesIdle && handoverFail:
		return N1E2
	case reachesIdle:
		return N1E1
	case scgFail:
		return N2E2
	case handoverDrop:
		return N2E1
	default:
		return SubtypeUnknown
	}
}

// Analysis bundles everything known about one run's loop behaviour.
type Analysis struct {
	Loops    []*Loop
	Subtypes []Subtype
}

// Analyze detects and classifies all loops in a finished timeline by
// pushing its steps through an unbounded StreamDetector.
func Analyze(tl *trace.Timeline) Analysis {
	d := NewStreamDetector(StreamConfig{})
	for _, s := range tl.Steps {
		d.Push(s)
	}
	return d.FinishAnalysis(tl)
}

// HasLoop reports whether any loop was found.
func (a Analysis) HasLoop() bool { return len(a.Loops) > 0 }

// Primary returns the first loop and its sub-type, or nil/Unknown.
func (a Analysis) Primary() (*Loop, Subtype) {
	if len(a.Loops) == 0 {
		return nil, SubtypeUnknown
	}
	return a.Loops[0], a.Subtypes[0]
}
