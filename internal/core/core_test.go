package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	measpkg "github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

func ref(s string) cell.Ref { return cell.MustRef(s) }

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// appendS1E3Cycle appends one establish→add→modify-fail→idle cycle.
func appendS1E3Cycle(l *sig.Log, base int) int {
	l.Append(at(base+210), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(base+3200), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{
			{Index: 1, Cell: ref("273@387410")},
			{Index: 2, Cell: ref("273@398410")},
			{Index: 3, Cell: ref("393@501390")},
		},
	})
	l.Append(at(base+3210), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(base+5100), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells:     []rrc.SCellEntry{{Index: 1, Cell: ref("371@387410")}},
		ReleaseSCells: []int{1},
	})
	l.Append(at(base+5110), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(base+5200), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
	return base + 16000
}

func s1e3Timeline(cycles int) *trace.Timeline {
	l := &sig.Log{}
	base := 0
	for i := 0; i < cycles; i++ {
		base = appendS1E3Cycle(l, base)
	}
	return trace.Extract(l)
}

func TestDetectPersistentLoop(t *testing.T) {
	tl := s1e3Timeline(3)
	loop, _ := Analyze(tl).Primary()
	if loop == nil {
		t.Fatal("no loop detected")
	}
	if loop.CycleLen != 4 {
		t.Errorf("CycleLen = %d, want 4", loop.CycleLen)
	}
	if loop.Reps != 3 {
		t.Errorf("Reps = %d, want 3", loop.Reps)
	}
	if loop.Form != FormPersistent {
		t.Errorf("Form = %v, want II-P", loop.Form)
	}
	if loop.Start != 1 {
		t.Errorf("Start = %d, want 1 (after initial IDLE)", loop.Start)
	}
}

func TestDetectNoLoop(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("273@398410")}}})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATNR})
	tl := trace.Extract(l)
	if Analyze(tl).HasLoop() {
		t.Error("stable run misdetected as loop")
	}
}

func TestDetectRequiresTwoReps(t *testing.T) {
	tl := s1e3Timeline(1)
	if Analyze(tl).HasLoop() {
		t.Error("single ON-OFF swing is not a loop")
	}
}

func TestDetectSemiPersistent(t *testing.T) {
	l := &sig.Log{}
	base := 0
	for i := 0; i < 2; i++ {
		base = appendS1E3Cycle(l, base)
	}
	// Exit the loop: connect to a different PCell and stay there.
	l.Append(at(base+210), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("104@501390")})
	l.Append(at(base+30000), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
		{Cell: ref("104@501390"), Role: rrc.RolePCell, Meas: measpkg.Measurement{RSRPDBm: -80, RSRQDB: -10.5}},
	}})
	tl := trace.Extract(l)
	loop, _ := Analyze(tl).Primary()
	if loop == nil {
		t.Fatal("no loop detected")
	}
	if loop.Form != FormSemiPersistent {
		t.Errorf("Form = %v, want II-SP", loop.Form)
	}
	if loop.Reps != 2 {
		t.Errorf("Reps = %d", loop.Reps)
	}
}

func TestCycleMetrics(t *testing.T) {
	tl := s1e3Timeline(3)
	loop, _ := Analyze(tl).Primary()
	if loop == nil {
		t.Fatal("no loop detected")
	}
	cycles := loop.Cycles()
	if len(cycles) != 3 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	c := cycles[0]
	// ON from 210 ms to 5200 ms; cycle ends at next SetupComplete
	// (16210 ms): ON = 4.99 s, OFF = 11.01 s.
	if c.On != 4990*time.Millisecond {
		t.Errorf("On = %v", c.On)
	}
	if c.Off != 11010*time.Millisecond {
		t.Errorf("Off = %v", c.Off)
	}
	if math.Abs(c.OffRatio()-11.01/16.0) > 1e-9 {
		t.Errorf("OffRatio = %v", c.OffRatio())
	}
	if c.Cycle() != 16*time.Second {
		t.Errorf("Cycle = %v", c.Cycle())
	}
}

func TestClassifyS1E3(t *testing.T) {
	tl := s1e3Timeline(2)
	loop, got := Analyze(tl).Primary()
	if loop == nil {
		t.Fatal("no loop detected")
	}
	if got != S1E3 {
		t.Errorf("sub-type = %v, want S1E3", got)
	}
	off, _ := loop.OffTransition()
	if off.Evidence.PendingMod == nil || !off.Evidence.PendingMod.IntraChannel() {
		t.Error("S1E3 evidence should carry an intra-channel modification")
	}
}

// nsaCycleLog builds NSA loop logs for a given OFF trigger.
func nsaCycle(l *sig.Log, base int, trigger string) int {
	pcell := ref("380@5145")
	spCell := ref("53@632736")
	l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATLTE, Cell: pcell})
	l.Append(at(base+1000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SpCell: &spCell})
	l.Append(at(base+1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	switch trigger {
	case "rlf":
		l.Append(at(base+5000), rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure})
	case "hof":
		l.Append(at(base+5000), rrc.ReestablishmentRequest{Cause: rrc.ReestHandoverFailure})
	case "handover":
		away := ref("380@5815")
		l.Append(at(base+5000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, Mobility: &away})
		l.Append(at(base+5010), rrc.ReconfigComplete{Rat: band.RATLTE})
		// Come back so the next cycle re-starts identically.
		backTo := ref("380@5145")
		l.Append(at(base+7000), rrc.Reconfig{Rat: band.RATLTE, Serving: away, Mobility: &backTo})
		l.Append(at(base+7010), rrc.ReconfigComplete{Rat: band.RATLTE})
	case "scgfail":
		l.Append(at(base+5000), rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
		l.Append(at(base+5040), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SCGRelease: true})
		l.Append(at(base+5050), rrc.ReconfigComplete{Rat: band.RATLTE})
	}
	return base + 10000
}

func nsaTimeline(trigger string, cycles int) *trace.Timeline {
	l := &sig.Log{}
	base := 0
	for i := 0; i < cycles; i++ {
		base = nsaCycle(l, base, trigger)
	}
	return trace.Extract(l)
}

func TestClassifyNSATypes(t *testing.T) {
	cases := map[string]Subtype{
		"rlf":      N1E1,
		"hof":      N1E2,
		"handover": N2E1,
		"scgfail":  N2E2,
	}
	for trigger, want := range cases {
		tl := nsaTimeline(trigger, 3)
		loop, got := Analyze(tl).Primary()
		if loop == nil {
			t.Errorf("%s: no loop detected", trigger)
			continue
		}
		if got != want {
			t.Errorf("%s: sub-type = %v, want %v", trigger, got, want)
		}
		if want.Type() == TypeN1 && loop.Form != FormPersistent {
			t.Errorf("%s: form = %v", trigger, loop.Form)
		}
	}
}

// s1e12Timeline builds two SA cycles whose SCell is added and then
// everything released with no failure on record. With poor unset the
// SCell never appears in a measurement report (S1E1); with poor set it
// is reported at a bad-apple level (S1E2).
func s1e12Timeline(poor bool) *trace.Timeline {
	l := &sig.Log{}
	base := 0
	for i := 0; i < 2; i++ {
		pcell := ref("540@501390")
		bad := ref("309@387410")
		l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
		l.Append(at(base+1000), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
			AddSCells: []rrc.SCellEntry{{Index: 1, Cell: bad}}})
		l.Append(at(base+1010), rrc.ReconfigComplete{Rat: band.RATNR})
		entries := []rrc.MeasEntry{
			{Cell: pcell, Role: rrc.RolePCell, Meas: measpkg.Measurement{RSRPDBm: -80, RSRQDB: -10.5}},
		}
		if poor {
			entries = append(entries, rrc.MeasEntry{Cell: bad, Role: rrc.RoleSCell,
				Meas: measpkg.Measurement{RSRPDBm: -108.5, RSRQDB: -25.5}})
		}
		for j := 0; j < 4; j++ {
			l.Append(at(base+2000+j*500), rrc.MeasReport{Rat: band.RATNR, Entries: entries})
		}
		l.Append(at(base+7000), rrc.Release{Rat: band.RATNR})
		base += 17000
	}
	return trace.Extract(l)
}

func TestClassifyS1E1AndS1E2(t *testing.T) {
	loop, got := Analyze(s1e12Timeline(false)).Primary()
	if loop == nil {
		t.Fatal("S1E1 scenario: no loop")
	}
	if got != S1E1 {
		t.Errorf("unmeasured scenario = %v, want S1E1", got)
	}
	loop, got = Analyze(s1e12Timeline(true)).Primary()
	if loop == nil {
		t.Fatal("S1E2 scenario: no loop")
	}
	if got != S1E2 {
		t.Errorf("poor scenario = %v, want S1E2", got)
	}
}

func TestSubtypeTypeMapping(t *testing.T) {
	wants := map[Subtype]LoopType{
		S1E1: TypeS1, S1E2: TypeS1, S1E3: TypeS1,
		N1E1: TypeN1, N1E2: TypeN1,
		N2E1: TypeN2, N2E2: TypeN2,
		SubtypeUnknown: TypeUnknown,
	}
	for s, want := range wants {
		if s.Type() != want {
			t.Errorf("%v.Type() = %v, want %v", s, s.Type(), want)
		}
	}
	if S1E3.String() != "S1E3" || N2E2.String() != "N2E2" || TypeS1.String() != "S1" {
		t.Error("name rendering")
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(s1e3Timeline(3))
	if !a.HasLoop() {
		t.Fatal("Analyze missed the loop")
	}
	l, st := a.Primary()
	if l == nil || st != S1E3 {
		t.Errorf("Primary = %v, %v", l, st)
	}
	empty := Analyze(trace.Extract(&sig.Log{}))
	if empty.HasLoop() {
		t.Error("empty log has no loops")
	}
	if l, st := empty.Primary(); l != nil || st != SubtypeUnknown {
		t.Error("empty Primary should be nil/unknown")
	}
}

func TestFormString(t *testing.T) {
	if FormNoLoop.String() != "I (no loop)" || FormPersistent.String() != "II-P" ||
		FormSemiPersistent.String() != "II-SP" || Form(9).String() != "Form(9)" {
		t.Error("Form strings")
	}
}

// --- prediction model ---

func TestModelShapes(t *testing.T) {
	m := &Model{K: 0.5, T: 12, N: 2, Feature: FeatureSCellGap}
	// Usage is a logistic in the PCell gap: 0.5 at zero, →1 for large
	// positive gaps, →0 for large negative (Fig. 21b).
	if u := m.Usage(Combo{PCellGapDB: 0}); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("Usage(0) = %v", u)
	}
	if u := m.Usage(Combo{PCellGapDB: 30}); u < 0.99 {
		t.Errorf("Usage(30) = %v", u)
	}
	if u := m.Usage(Combo{PCellGapDB: -30}); u > 0.01 {
		t.Errorf("Usage(-30) = %v", u)
	}
	// Conditional probability decreases with the SCell gap (Fig. 21a).
	p0 := m.CondLoopProb(Combo{SCellGapDB: 0})
	p6 := m.CondLoopProb(Combo{SCellGapDB: 6})
	p20 := m.CondLoopProb(Combo{SCellGapDB: 20})
	if !(p0 > p6 && p6 > p20) || p0 != 1 || p20 != 0 {
		t.Errorf("CondLoopProb shape: %v %v %v", p0, p6, p20)
	}
	// Negative gaps use absolute value.
	if m.CondLoopProb(Combo{SCellGapDB: -6}) != p6 {
		t.Error("gap should be symmetric")
	}
}

func TestModelWorstRSRPFeature(t *testing.T) {
	m := &Model{K: 0.5, T: 40, N: 2, Feature: FeatureWorstRSRP}
	weak := m.CondLoopProb(Combo{WorstSCellRSRPDBm: -126})
	strong := m.CondLoopProb(Combo{WorstSCellRSRPDBm: -85})
	if weak <= strong {
		t.Errorf("weaker SCell must mean higher probability: weak=%v strong=%v", weak, strong)
	}
	if m.Feature.String() != "worst-scell-rsrp" || FeatureSCellGap.String() != "scell-gap" {
		t.Error("feature names")
	}
}

func TestPredictClamped(t *testing.T) {
	m := &Model{K: 2, T: 12, N: 0.5, Feature: FeatureSCellGap}
	combos := []Combo{
		{PCellGapDB: 20, SCellGapDB: 0},
		{PCellGapDB: 20, SCellGapDB: 0},
		{PCellGapDB: 20, SCellGapDB: 0},
	}
	if p := m.Predict(combos); p > 1 {
		t.Errorf("Predict not clamped: %v", p)
	}
}

func TestFitRecoversPlantedModel(t *testing.T) {
	truth := &Model{K: 0.6, T: 10, N: 2, Feature: FeatureSCellGap}
	rng := rand.New(rand.NewSource(4))
	var samples []Sample
	for i := 0; i < 120; i++ {
		combos := []Combo{{
			PCellGapDB: units.DB(rng.Float64()*40 - 20),
			SCellGapDB: units.DB(rng.Float64() * 25),
		}}
		samples = append(samples, Sample{Combos: combos, Truth: truth.Predict(combos)})
	}
	fitted := Fit(samples, FeatureSCellGap)
	if err := fitted.mse(samples); err > 0.003 {
		t.Errorf("fit MSE = %v (%s)", err, fitted)
	}
}

func TestFitEmptyInput(t *testing.T) {
	m := Fit(nil, FeatureWorstRSRP)
	if m == nil || m.Feature != FeatureWorstRSRP {
		t.Error("Fit(nil) should return a default model")
	}
}

func TestCombineIndependent(t *testing.T) {
	if got := CombineIndependent(0.5, 0.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CombineIndependent = %v", got)
	}
	if got := CombineIndependent(); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := CombineIndependent(1.5, -0.2); got != 1 {
		t.Errorf("clamping = %v", got)
	}
}

func TestEvaluate(t *testing.T) {
	m := &Model{K: 0.6, T: 10, N: 2, Feature: FeatureSCellGap}
	samples := []Sample{
		{Combos: []Combo{{PCellGapDB: 10, SCellGapDB: 2}}, Truth: 0.8},
		{Combos: []Combo{{PCellGapDB: 10, SCellGapDB: 20}}, Truth: 0.0},
		{Combos: []Combo{{PCellGapDB: -10, SCellGapDB: 2}}, Truth: 0.05},
	}
	res := m.Evaluate(samples)
	if len(res.Pred) != 3 || res.MSE < 0 {
		t.Errorf("Evaluate = %+v", res)
	}
	if res.Within25 < res.Within10 {
		t.Error("error bounds must nest")
	}
}

func TestModelString(t *testing.T) {
	m := &Model{K: 0.5, T: 10, N: 2, Feature: FeatureSCellGap}
	if m.String() != "Model{k=0.500 t=10.00 n=2.00 feature=scell-gap}" {
		t.Errorf("String = %q", m.String())
	}
}

func TestLoopFingerprint(t *testing.T) {
	loopA, _ := Analyze(s1e3Timeline(3)).Primary()
	// Same cycle, different repetition count.
	loopB, _ := Analyze(s1e3Timeline(5)).Primary()
	// A different cycle (other PCell).
	loopC, _ := Analyze(nsaTimeline("scgfail", 3)).Primary()
	if loopA == nil || loopB == nil || loopC == nil {
		t.Fatal("fixture produced no loop")
	}
	if loopA.Fingerprint() != loopB.Fingerprint() {
		t.Error("same cycle must share a fingerprint regardless of reps")
	}
	if loopC.Fingerprint() == loopA.Fingerprint() {
		t.Error("distinct cycles share a fingerprint")
	}
	if loopA.Fingerprint() == "loop:empty" {
		t.Error("real loop rendered as empty")
	}
}

// setTimeline builds a timeline directly from cell sets, one step per
// second, with the given observation duration.
func setTimeline(sets []cell.Set, durMS int) *trace.Timeline {
	steps := make([]trace.Step, len(sets))
	for i, s := range sets {
		steps[i] = trace.Step{At: at(i * 1000), Set: s}
	}
	return &trace.Timeline{Steps: steps, Duration: at(durMS)}
}

// TestFingerprintRotationWithRepeatedMinimum: when the
// lexicographically smallest cycle key occurs more than once, the
// canonical rotation must still be unique — two observations of the
// same loop entered at different phases have to agree. The idle key
// ("-|-") sorts below every connected key and appears twice here, so a
// first-occurrence rule would hash A,B,A,C and A,C,A,B differently.
func TestFingerprintRotationWithRepeatedMinimum(t *testing.T) {
	idle := cell.Idle()
	onB := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("393@521310"))}
	onC := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("540@501390"))}
	loop := func(sets ...cell.Set) *Loop {
		n := len(sets)
		tl := setTimeline(append(sets, sets...), 2*n*1000)
		return LoopIn(tl, 0, n, MinReps, 2*n, FormPersistent)
	}
	phase0 := loop(idle, onB, idle, onC)
	phase2 := loop(idle, onC, idle, onB) // same cycle observed two steps later
	if phase0.Fingerprint() != phase2.Fingerprint() {
		t.Errorf("rotations of one cycle hash differently: %s vs %s",
			phase0.Fingerprint(), phase2.Fingerprint())
	}
	distinct := loop(idle, onB, onC, idle) // not a rotation of the above
	if distinct.Fingerprint() == phase0.Fingerprint() {
		t.Errorf("distinct cycle shares fingerprint %s", phase0.Fingerprint())
	}
}

// TestCyclesTruncatedDurationClamp: a timeline can carry an observation
// duration before the last step's timestamp (trace.Builder never makes
// one, but Analyze accepts any timeline). The detector ends such a
// stream at its last step, so the final repetition is metered up to
// that step and no share goes negative.
func TestCyclesTruncatedDurationClamp(t *testing.T) {
	on := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("393@521310"))}
	idle := cell.Idle()
	// Last repetition starts at 2s, but the recorded duration is 1.5s.
	tl := setTimeline([]cell.Set{on, idle, on, idle}, 1500)
	loops := Analyze(tl).Loops
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	cycles := loops[0].Cycles()
	if len(cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(cycles))
	}
	for i, c := range cycles {
		if c.Off < 0 || c.On < 0 {
			t.Errorf("cycle %d: negative share: %+v", i, c)
		}
	}
	if want := (CycleMetrics{Start: at(2000), On: at(1000)}); cycles[1] != want {
		t.Errorf("truncated final cycle = %+v, want %+v", cycles[1], want)
	}
	if want := LoopIn(tl, 0, 2, 2, 4, FormPersistent).Cycles(); !reflect.DeepEqual(cycles, want) {
		t.Errorf("detector cycles %+v, LoopIn cycles %+v", cycles, want)
	}
}

// TestDetectAllFindsLoopInsideRejectedWindow: rejecting a candidate
// start must advance the scan by one step, not past the examined
// window, so a shorter loop beginning mid-window is still found.
func TestDetectAllFindsLoopInsideRejectedWindow(t *testing.T) {
	onX := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("660@521310"))}
	onA := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("393@521310"))}
	idle := cell.Idle()
	// Candidate at step 0 (onX) is rejected at every admissible cycle
	// length, but the (onA, idle) loop starting inside that first
	// examined window must still be detected.
	tl := setTimeline([]cell.Set{onX, onA, idle, onA, idle, onA, idle}, 7000)
	loops := Analyze(tl).Loops
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Start != 1 || l.CycleLen != 2 || l.Reps != 3 || l.Form != FormPersistent {
		t.Errorf("loop = start=%d len=%d reps=%d form=%v, want start=1 len=2 reps=3 II-P",
			l.Start, l.CycleLen, l.Reps, l.Form)
	}
}
