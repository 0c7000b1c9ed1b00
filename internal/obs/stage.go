package obs

import "strconv"

// Stage names one producer of a run's capture events, the vocabulary
// stage spans are recorded under. Extraction and detection have no
// stage of their own: they run inside whichever producer feeds the
// timeline builder, so a run's spans never overlap.
type Stage uint8

// Pipeline stages.
const (
	// StageSimulate is the simulator producing the run's events (and,
	// on a faulted run, rendering them as capture text).
	StageSimulate Stage = iota
	// StageParse is parsing a capture: on a faulted run, corrupting
	// the rendered text and salvaging it; in loopctl, reading the file.
	StageParse
)

// String names the stage as used in metric names.
func (s Stage) String() string {
	switch s {
	case StageSimulate:
		return "simulate"
	case StageParse:
		return "parse"
	default:
		return "Stage(" + strconv.Itoa(int(s)) + ")"
	}
}
