package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

// fuzzSetPool is the cell-set alphabet the fuzzer composes timelines
// from: idle, LTE-only (both 5G OFF), SA with and without SCells, and
// NSA (all 5G ON) — enough distinct keys to form every loop shape the
// detector distinguishes.
func fuzzSetPool() []cell.Set {
	sa := cell.Set{MCG: cell.NewGroup(band.RATNR, cell.MustRef("660@521310"))}
	saS := cell.Set{MCG: cell.NewGroup(band.RATNR, cell.MustRef("660@521310"))}
	saS.MCG.AddSCell(cell.MustRef("273@387410"))
	sa2 := cell.Set{MCG: cell.NewGroup(band.RATNR, cell.MustRef("540@501390"))}
	lte := cell.Set{MCG: cell.NewGroup(band.RATLTE, cell.MustRef("100@1850"))}
	nsa := cell.Set{
		MCG: cell.NewGroup(band.RATLTE, cell.MustRef("100@1850")),
		SCG: cell.NewGroup(band.RATNR, cell.MustRef("273@387410")),
	}
	return []cell.Set{cell.Idle(), lte, sa, saS, sa2, nsa}
}

// fuzzEvidence derives a step's trigger evidence from a fuzz byte,
// including the NaN/Inf sentinel values real salvaged captures carry.
func fuzzEvidence(b byte) trace.Evidence {
	ev := trace.Evidence{Kind: trace.ReleaseKind(b % 6)}
	switch (b >> 4) % 3 {
	case 1:
		ev.WorstSCellRSRP = units.DBm(math.Inf(1))
	case 2:
		ev.WorstSCellRSRP = units.DBm(math.NaN())
	}
	return ev
}

// fuzzTimeline decodes a fuzz payload into a structurally valid
// timeline: non-decreasing step times (zero-width steps included, as a
// resynced salvaged capture can produce) and a duration at or after the
// last step, exactly the contract trace.Builder guarantees.
func fuzzTimeline(data []byte) *trace.Timeline {
	pool := fuzzSetPool()
	steps := make([]trace.Step, 0, len(data))
	now := time.Duration(0)
	for i, b := range data {
		now += time.Duration(int(b)/len(pool)%8) * 100 * time.Millisecond
		steps = append(steps, trace.Step{
			At:       now,
			Set:      pool[int(b)%len(pool)],
			Evidence: fuzzEvidence(b ^ byte(i)),
		})
	}
	return &trace.Timeline{Steps: steps, Duration: now + 500*time.Millisecond}
}

// FuzzStreamDetectParity is the differential fuzzer pinning the
// StreamDetector's equivalence claim: on any structurally valid
// timeline, the incremental detector's output — loops, forms, cycle
// keys, per-cycle metrics, fingerprints, sub-types — is byte-identical
// to the oracle's DetectAllHorizon on the complete input, at the fuzzed
// horizon and unbounded, while the retained window honours its 2H+2
// bound.
func FuzzStreamDetectParity(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{2, 0, 2, 0, 2, 0}, uint8(0))                   // minimal II-P loop
	f.Add([]byte{2, 0, 2, 0, 2, 0, 4, 0, 4, 0, 4, 1}, uint8(2)) // II-SP then II-P
	f.Add([]byte{1, 2, 3, 0, 2, 3, 0, 2, 3, 0}, uint8(3))       // pre-step + 3-cycle
	f.Add([]byte{5, 0, 5, 0, 5, 0, 5}, uint8(1))                // NSA loop, horizon too small
	f.Add([]byte{2, 3, 4, 0, 2, 3, 4, 0, 2, 3, 4, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, h uint8) {
		if len(data) > 2048 {
			t.Skip("cap input size")
		}
		horizon := int(h % 10) // 0 = unbounded, else 1..9
		tl := fuzzTimeline(data)
		batch := oracleAnalysis(tl, horizon)
		sd := NewStreamDetector(StreamConfig{Horizon: horizon})
		for _, s := range tl.Steps {
			sd.Push(s)
			if horizon > 0 {
				if r := sd.Retained(); r > 2*horizon+2 {
					t.Fatalf("retained %d steps, bound is %d", r, 2*horizon+2)
				}
			}
		}
		recs := sd.Flush(tl.Duration)
		got := sd.FinishAnalysis(tl)
		if want, have := renderAnalysis(batch), renderAnalysis(got); want != have {
			t.Fatalf("horizon %d: stream diverges from the oracle\noracle:\n%s\nstream:\n%s",
				horizon, want, have)
		}
		for i, sl := range recs {
			l := batch.Loops[i]
			if !reflect.DeepEqual(sl.CycleKeys, l.CycleKeys()) ||
				!reflect.DeepEqual(sl.Cycles, l.Cycles()) ||
				sl.Fingerprint != l.Fingerprint() ||
				sl.Subtype != batch.Subtypes[i] {
				t.Fatalf("loop %d: record %+v diverges from the oracle loop (keys=%q cycles=%v fp=%s sub=%v)",
					i, sl, l.CycleKeys(), l.Cycles(), l.Fingerprint(), batch.Subtypes[i])
			}
		}
		// Unbounded, Analyze must equal the oracle as well.
		if horizon == 0 {
			if !reflect.DeepEqual(Analyze(tl), batch) {
				t.Fatal("Analyze diverges from the oracle")
			}
		}
	})
}

// fuzz seed sanity: the encoded corpus entries really produce loops, so
// the fuzzer starts from looping inputs rather than discovering them.
func TestFuzzSeedsProduceLoops(t *testing.T) {
	tl := fuzzTimeline([]byte{2, 0, 2, 0, 2, 0})
	if loops := Analyze(tl).Loops; len(loops) != 1 {
		t.Fatalf("seed timeline: %d loops, want 1", len(loops))
	}
	tl = fuzzTimeline([]byte{2, 0, 2, 0, 2, 0, 4, 0, 4, 0, 4, 1})
	loops := Analyze(tl).Loops
	if len(loops) != 2 {
		t.Fatalf("two-loop seed: %d loops, want 2", len(loops))
	}
	if loops[0].Form != FormSemiPersistent {
		t.Errorf("first seed loop form = %v, want II-SP", loops[0].Form)
	}
}
