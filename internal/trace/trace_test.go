package trace

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/racecheck"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/units"
)

func ref(s string) cell.Ref { return cell.MustRef(s) }

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// s1e3Log reproduces the §3 walkthrough: establish, add three SCells,
// modify an SCell (273@387410 → 371@387410), hit the exception, idle,
// re-establish, and repeat.
func s1e3Log(cycles int) *sig.Log {
	l := &sig.Log{}
	base := 0
	for c := 0; c < cycles; c++ {
		l.Append(at(base+100), rrc.SetupRequest{Rat: band.RATNR, Cell: ref("393@521310")})
		l.Append(at(base+200), rrc.Setup{Rat: band.RATNR, Cell: ref("393@521310")})
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
		l.Append(at(base+5000), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
			{Cell: ref("393@521310"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -10.5}},
			{Cell: ref("273@387410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -85, RSRQDB: -14.5}},
			{Cell: ref("273@398410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -82, RSRQDB: -10.5}},
			{Cell: ref("393@501390"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -82, RSRQDB: -10.5}},
			{Cell: ref("371@387410"), Role: rrc.RoleCandidate, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -11.5}},
		}})
		l.Append(at(base+5100), rrc.Reconfig{
			Rat: band.RATNR, Serving: ref("393@521310"),
			AddSCells:     []rrc.SCellEntry{{Index: 1, Cell: ref("371@387410")}},
			ReleaseSCells: []int{1},
		})
		l.Append(at(base+5110), rrc.ReconfigComplete{Rat: band.RATNR})
		l.Append(at(base+5200), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
		base += 16000
	}
	return l
}

func TestExtractS1E3(t *testing.T) {
	tl := Extract(s1e3Log(2))
	// Per cycle: IDLE, SA1 (PCell), SA2 (+3 SCells), SA3 (modified), IDLE.
	// First IDLE at t=0, then 4 steps per cycle.
	if got := len(tl.Steps); got != 1+4*2 {
		for i, s := range tl.Steps {
			t.Logf("step %d @%v: %v (cause %v)", i, s.At, s.Set, s.Evidence.Kind)
		}
		t.Fatalf("steps = %d, want 9", got)
	}
	if !tl.Steps[0].Set.IsIdle() {
		t.Error("timeline must start IDLE")
	}
	sa2 := tl.Steps[2].Set
	if sa2.State() != cell.State5GSA || len(sa2.MCG.SCells) != 3 {
		t.Errorf("SA2 = %v", sa2)
	}
	sa3 := tl.Steps[3].Set
	if sa3.Contains(ref("273@387410")) || !sa3.Contains(ref("371@387410")) {
		t.Errorf("modification not applied: %v", sa3)
	}
	idle := tl.Steps[4]
	if !idle.Set.IsIdle() || idle.Evidence.Kind != CauseException {
		t.Fatalf("release step wrong: %v cause %v", idle.Set, idle.Evidence.Kind)
	}
	mod := idle.Evidence.PendingMod
	if mod == nil {
		t.Fatal("exception should carry the pending SCell modification")
	}
	if mod.Released != ref("273@387410") || mod.Added != ref("371@387410") || !mod.IntraChannel() {
		t.Errorf("PendingMod = %+v", mod)
	}
	// The two cycles must produce identical key subsequences.
	for i := 1; i <= 4; i++ {
		if a, b := tl.Steps[i].Set.Key(), tl.Steps[i+4].Set.Key(); a != b {
			t.Errorf("cycle keys differ at %d: %q vs %q", i, a, b)
		}
	}
}

func TestExtractS1E1Unmeasured(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("540@501390")})
	l.Append(at(2000), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("540@501390"),
		AddSCells: []rrc.SCellEntry{
			{Index: 1, Cell: ref("309@387410")},
			{Index: 2, Cell: ref("309@398410")},
		},
	})
	l.Append(at(2010), rrc.ReconfigComplete{Rat: band.RATNR})
	for i := 0; i < 5; i++ {
		l.Append(at(3000+i*500), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
			{Cell: ref("540@501390"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -80, RSRQDB: -10.5}},
			{Cell: ref("309@398410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -83, RSRQDB: -11.5}},
		}})
	}
	l.Append(at(7000), rrc.Release{Rat: band.RATNR})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Evidence.Kind != CauseRRCRelease {
		t.Fatalf("cause = %v", last.Evidence.Kind)
	}
	if len(last.Evidence.UnmeasuredSCells) != 1 || last.Evidence.UnmeasuredSCells[0] != ref("309@387410") {
		t.Errorf("UnmeasuredSCells = %v", last.Evidence.UnmeasuredSCells)
	}
	if last.Evidence.Reports != 5 {
		t.Errorf("Reports = %d", last.Evidence.Reports)
	}
}

// TestMeasBookkeepingPerONPeriod: a report counts toward the ON period
// it falls in only. A cell measured in one period, poor there, and not
// measured in the next is unmeasured and not poor at the next release,
// whether or not a later report lists its cells in the same order.
func TestMeasBookkeepingPerONPeriod(t *testing.T) {
	pcell, scA, scB := ref("540@501390"), ref("309@387410"), ref("309@398410")
	entry := func(c cell.Ref, rsrq units.DB) rrc.MeasEntry {
		return rrc.MeasEntry{Cell: c, Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -90, RSRQDB: rsrq}}
	}
	for _, second := range [][]rrc.MeasEntry{
		{entry(pcell, -10), entry(scA, -11)},
		{entry(scA, -11), entry(pcell, -10)},
	} {
		l := &sig.Log{}
		for p, entries := range [][]rrc.MeasEntry{{entry(pcell, -10), entry(scA, -11), entry(scB, -25)}, second} {
			base := p * 20000
			l.Append(at(base+100), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
			l.Append(at(base+2000), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
				AddSCells: []rrc.SCellEntry{{Index: 1, Cell: scA}, {Index: 2, Cell: scB}}})
			l.Append(at(base+2010), rrc.ReconfigComplete{Rat: band.RATNR})
			l.Append(at(base+3000), rrc.MeasReport{Rat: band.RATNR, Entries: entries})
			l.Append(at(base+7000), rrc.Release{Rat: band.RATNR})
		}
		var releases []Evidence
		for _, s := range Extract(l).Steps {
			if s.Evidence.Kind == CauseRRCRelease {
				releases = append(releases, s.Evidence)
			}
		}
		if len(releases) != 2 {
			t.Fatalf("%d releases, want 2", len(releases))
		}
		first, next := releases[0], releases[1]
		if len(first.UnmeasuredSCells) != 0 || len(first.PoorSCells) != 1 || first.PoorSCells[0] != scB {
			t.Errorf("first release: unmeasured %v, poor %v; want none and [%v]", first.UnmeasuredSCells, first.PoorSCells, scB)
		}
		if len(next.UnmeasuredSCells) != 1 || next.UnmeasuredSCells[0] != scB || len(next.PoorSCells) != 0 {
			t.Errorf("second release: unmeasured %v, poor %v; want [%v] and none", next.UnmeasuredSCells, next.PoorSCells, scB)
		}
		if next.WorstSCellRSRP != -90 || next.Reports != 1 {
			t.Errorf("second release: worst RSRP %v over %d reports, want -90 over 1", next.WorstSCellRSRP, next.Reports)
		}
	}
}

// TestExtractHostileCaptureStaysLinear: one ON period whose 2 000
// reports of 100 entries name 200 000 distinct cells folds within a
// generous bound. The bookkeeping scans a period's slots only until the
// period names measIndexAt cells; past that a map index finds each
// cell's slot. A scan over every cell seen so far instead takes tens of
// seconds on this capture.
func TestExtractHostileCaptureStaysLinear(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector slows extraction too much for a wall-clock bound")
	}
	const reports, perReport = 2000, 100
	pcell, seen, unseen := ref("393@521310"), cell.Ref{PCI: 0, Channel: 0}, cell.Ref{PCI: -1, Channel: 0}
	start := time.Now()
	b := NewBuilder()
	b.Append(at(1), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
	b.Append(at(2), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: seen}, {Index: 2, Cell: unseen}}})
	b.Append(at(3), rrc.ReconfigComplete{Rat: band.RATNR})
	entries := make([]rrc.MeasEntry, perReport)
	for r := 0; r < reports; r++ {
		for i := range entries {
			entries[i] = rrc.MeasEntry{Cell: cell.Ref{PCI: r, Channel: i}, Meas: meas.Measurement{RSRPDBm: -90, RSRQDB: -10}}
		}
		b.Append(at(10+r), rrc.MeasReport{Rat: band.RATNR, Entries: entries})
	}
	b.Append(at(10+reports), rrc.Release{Rat: band.RATNR})
	tl := b.Finish()
	elapsed := time.Since(start)
	ev := tl.Steps[len(tl.Steps)-1].Evidence
	if ev.Kind != CauseRRCRelease || ev.Reports != reports ||
		len(ev.UnmeasuredSCells) != 1 || ev.UnmeasuredSCells[0] != unseen {
		t.Fatalf("release evidence %+v, want %d reports and only %v unmeasured", ev, reports, unseen)
	}
	if limit := 10 * time.Second; elapsed > limit {
		t.Errorf("folding %d entries over %d cells took %v, want under %v", reports*perReport, reports*perReport, elapsed, limit)
	}
}

func TestExtractS1E2Poor(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("684@501390")})
	l.Append(at(900), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("684@501390"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("390@387410")}},
	})
	l.Append(at(910), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(1000), rrc.MeasReport{Rat: band.RATNR, Entries: []rrc.MeasEntry{
		{Cell: ref("684@501390"), Role: rrc.RolePCell, Meas: meas.Measurement{RSRPDBm: -81, RSRQDB: -10.5}},
		{Cell: ref("390@387410"), Role: rrc.RoleSCell, Meas: meas.Measurement{RSRPDBm: -108.5, RSRQDB: -25.5}},
	}})
	l.Append(at(10500), rrc.Release{Rat: band.RATNR})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1]
	if len(last.Evidence.PoorSCells) != 1 || last.Evidence.PoorSCells[0] != ref("390@387410") {
		t.Errorf("PoorSCells = %v", last.Evidence.PoorSCells)
	}
	if last.Evidence.WorstSCellRSRP != -108.5 {
		t.Errorf("WorstSCellRSRP = %v", last.Evidence.WorstSCellRSRP)
	}
	if !last.Evidence.HasSCellReport() {
		t.Error("HasSCellReport must be true when an SCell measurement was seen")
	}
	if len(last.Evidence.UnmeasuredSCells) != 0 {
		t.Errorf("UnmeasuredSCells should be empty: %v", last.Evidence.UnmeasuredSCells)
	}
}

// Regression: a release without any SCell measurement report used to
// leave WorstSCellRSRP at the zero value 0 dBm — a physically
// impossible but plausible-looking RSRP that downstream consumers could
// mistake for a real reading. The no-report sentinel is now +Inf,
// detectable via HasSCellReport.
func TestWorstSCellRSRPNoReportSentinel(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("684@501390")})
	l.Append(at(900), rrc.Reconfig{
		Rat: band.RATNR, Serving: ref("684@501390"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("390@387410")}},
	})
	l.Append(at(910), rrc.ReconfigComplete{Rat: band.RATNR})
	// No MeasReport before the release.
	l.Append(at(5000), rrc.Release{Rat: band.RATNR})
	tl := Extract(l)
	ev := tl.Steps[len(tl.Steps)-1].Evidence
	if !math.IsInf(ev.WorstSCellRSRP.Float(), 1) {
		t.Errorf("WorstSCellRSRP = %v, want +Inf sentinel when no report was seen", ev.WorstSCellRSRP)
	}
	if ev.HasSCellReport() {
		t.Error("HasSCellReport must be false without a measurement report")
	}
	// Every step of the timeline honors the sentinel convention: the
	// zero value 0 dBm never appears as a phantom reading.
	for i, s := range tl.Steps {
		if !s.Evidence.HasSCellReport() && !math.IsInf(s.Evidence.WorstSCellRSRP.Float(), 1) {
			t.Errorf("step %d: report-free evidence carries RSRP %v", i, s.Evidence.WorstSCellRSRP)
		}
	}
}

func TestExtractN2E1Handover(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("53@632736")
	back := ref("380@5145")
	away := ref("380@5815")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: back})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: back, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	// Handover to the 5G-disabled channel without spCellConfig: drop SCG.
	l.Append(at(5000), rrc.Reconfig{Rat: band.RATLTE, Serving: back, Mobility: &away})
	l.Append(at(5010), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State4GOnly {
		t.Fatalf("state = %v", last.Set.State())
	}
	if last.Evidence.Kind != CauseHandoverNoSCG {
		t.Errorf("cause = %v", last.Evidence.Kind)
	}
	if last.Evidence.HandoverFrom != back || last.Evidence.HandoverTo != away {
		t.Errorf("handover evidence = %v → %v", last.Evidence.HandoverFrom, last.Evidence.HandoverTo)
	}
}

func TestExtractHandoverKeepingSCG(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("53@632736")
	from, to := ref("380@5815"), ref("380@5145")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: from})
	// Handover that re-provisions the SCG in the same message keeps 5G.
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: from, Mobility: &to, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State5GNSA {
		t.Fatalf("state = %v, want NSA", last.Set.State())
	}
	if last.Evidence.Kind != CauseNone {
		t.Errorf("cause = %v, want none", last.Evidence.Kind)
	}
}

func TestExtractN2E2SCGFailure(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("188@648672")
	pcell := ref("62@1075")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: pcell})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SpCell: &spCell,
		SCGSCells: []cell.Ref{ref("188@653952")}})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(5000), rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
	l.Append(at(5040), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SCGRelease: true})
	l.Append(at(5050), rrc.ReconfigComplete{Rat: band.RATLTE})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1]
	if last.Set.State() != cell.State4GOnly {
		t.Fatalf("state = %v", last.Set.State())
	}
	if last.Evidence.Kind != CauseSCGRelease || last.Evidence.SCGFailure != rrc.SCGFailureRandomAccess {
		t.Errorf("evidence = %+v", last.Evidence)
	}
}

func TestExtractReestablishment(t *testing.T) {
	l := &sig.Log{}
	spCell := ref("66@632736")
	pcell := ref("191@66936")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: pcell})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: pcell, SpCell: &spCell})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(8000), rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure})
	l.Append(at(8100), rrc.ReestablishmentComplete{Cell: ref("238@5815")})
	tl := Extract(l)
	// Steps: IDLE, 4G, NSA, IDLE (reest req), 4G (reest complete).
	if len(tl.Steps) != 5 {
		t.Fatalf("steps = %d", len(tl.Steps))
	}
	rel := tl.Steps[3]
	if rel.Evidence.Kind != CauseReestablishment || rel.Evidence.ReestCause != rrc.ReestOtherFailure {
		t.Errorf("reestablishment evidence = %+v", rel.Evidence)
	}
	if rel.Evidence.HandoverFrom != pcell {
		t.Errorf("HandoverFrom = %v", rel.Evidence.HandoverFrom)
	}
	if got := tl.Steps[4].Set.MCG.Primary; got != ref("238@5815") {
		t.Errorf("re-anchored PCell = %v", got)
	}
}

func TestTimeIn5G(t *testing.T) {
	tl := Extract(s1e3Log(1))
	// ON from 210 ms (setup complete) to 5200 ms (exception): ~4990 ms.
	on := tl.TimeIn5G(0, tl.Duration)
	if on != 4990*time.Millisecond {
		t.Errorf("TimeIn5G = %v, want 4.99s", on)
	}
	// Restricted window.
	on = tl.TimeIn5G(at(1000), at(2000))
	if on != time.Second {
		t.Errorf("windowed TimeIn5G = %v", on)
	}
}

// connectedSet returns a minimal 5G SA serving set for hand-built
// timeline boundary tests.
func connectedSet() cell.Set {
	return cell.Set{MCG: &cell.Group{RAT: band.RATNR, Primary: ref("393@521310")}}
}

// TestTimeIn5GBoundaries pins the window/step edge cases: empty
// timelines, steps landing exactly at or past the observation end, and
// query windows outside the observation.
func TestTimeIn5GBoundaries(t *testing.T) {
	empty := &Timeline{}
	if got := empty.TimeIn5G(0, time.Minute); got != 0 {
		t.Errorf("empty timeline TimeIn5G = %v, want 0", got)
	}
	if occ := empty.Occupy(); occ.Total != 0 || occ.OffRatio() != 0 {
		t.Errorf("empty timeline occupancy = %+v", occ)
	}

	// One connected step whose start coincides with the observation end:
	// it is in force for zero time.
	atEnd := &Timeline{
		Steps: []Step{
			{At: 0, Set: cell.Set{}},
			{At: 10 * time.Second, Set: connectedSet()},
		},
		Duration: 10 * time.Second,
	}
	if got := atEnd.TimeIn5G(0, atEnd.Duration); got != 0 {
		t.Errorf("step at Duration contributes %v, want 0", got)
	}

	// A step past the observation end (possible on damaged captures
	// where Duration came from a truncated tail) must not produce a
	// negative contribution.
	past := &Timeline{
		Steps: []Step{
			{At: 0, Set: cell.Set{}},
			{At: 12 * time.Second, Set: connectedSet()},
		},
		Duration: 10 * time.Second,
	}
	if got := past.TimeIn5G(0, past.Duration); got != 0 {
		t.Errorf("step past Duration contributes %v, want 0", got)
	}
	occ := past.Occupy()
	if occ.SA != 0 || occ.Idle != 12*time.Second {
		t.Errorf("occupancy with step past Duration = %+v", occ)
	}
	if r := occ.OffRatio(); r < 0 || r > 1 {
		t.Errorf("OffRatio = %v, want within [0,1]", r)
	}

	// Windows entirely outside the observation.
	tl := Extract(s1e3Log(1))
	if got := tl.TimeIn5G(tl.Duration+time.Second, tl.Duration+time.Minute); got != 0 {
		t.Errorf("window after observation = %v, want 0", got)
	}
	if got := tl.TimeIn5G(-time.Minute, 0); got != 0 {
		t.Errorf("window before observation = %v, want 0", got)
	}
	// Inverted window.
	if got := tl.TimeIn5G(at(2000), at(1000)); got != 0 {
		t.Errorf("inverted window = %v, want 0", got)
	}
}

// TestOffRatioWithinUnit property: OffRatio stays in [0,1] for
// arbitrary generated runs — the denominator view behind every OFF-time
// figure of the paper must be a true ratio.
func TestOffRatioWithinUnit(t *testing.T) {
	for cycles := 1; cycles <= 4; cycles++ {
		occ := Extract(s1e3Log(cycles)).Occupy()
		if r := occ.OffRatio(); r < 0 || r > 1 {
			t.Errorf("cycles=%d: OffRatio = %v, want within [0,1]", cycles, r)
		}
	}
}

func TestStaleReconfigAfterRelease(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1000), rrc.Release{Rat: band.RATNR})
	// A straggler completion after release must not resurrect cells.
	l.Append(at(1100), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 1, Cell: ref("273@387410")}}})
	l.Append(at(1110), rrc.ReconfigComplete{Rat: band.RATNR})
	tl := Extract(l)
	if !tl.Steps[len(tl.Steps)-1].Set.IsIdle() {
		t.Error("stale reconfig resurrected the connection")
	}
}

func TestIndexReuseReplacesCell(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 4, Cell: ref("393@501390")}}})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATNR})
	// Re-using index 4 swaps the cell (the Fig. 26 first change:
	// 393@501390 → 104@501390 via release {3} + add idx 4 is modeled
	// here as index reuse).
	l.Append(at(2000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{{Index: 4, Cell: ref("104@501390")}}})
	l.Append(at(2010), rrc.ReconfigComplete{Rat: band.RATNR})
	tl := Extract(l)
	last := tl.Steps[len(tl.Steps)-1].Set
	if last.Contains(ref("393@501390")) || !last.Contains(ref("104@501390")) {
		t.Errorf("index reuse not applied: %v", last)
	}
	ev := tl.Steps[len(tl.Steps)-1].Evidence
	if ev.Kind != CauseNone {
		t.Errorf("benign modification misclassified: %v", ev.Kind)
	}
}

// TestSCellIndexAbove31IsHonoured: SCells added at sCellIndex 32 and
// 60, the release of 60 and the re-use of 32 change the MCG and
// Evidence.Mod exactly as the same capture at indices 2 and 5 does,
// each parsed from its text. RRC numbers SCells 1..31, but the
// simulator's dense runs go past 31, so neither the parser nor the
// extractor may refuse such an index yet.
func TestSCellIndexAbove31IsHonoured(t *testing.T) {
	pcell, a, b, c := ref("393@521310"), ref("273@387410"), ref("273@398410"), ref("371@387410")
	extract := func(lo, hi int) *Timeline {
		l := &sig.Log{}
		l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
		for i, rc := range []rrc.Reconfig{
			{AddSCells: []rrc.SCellEntry{{Index: lo, Cell: a}, {Index: hi, Cell: b}}},
			{ReleaseSCells: []int{hi}},
			{AddSCells: []rrc.SCellEntry{{Index: lo, Cell: c}}},
		} {
			rc.Rat, rc.Serving = band.RATNR, pcell
			l.Append(at(1000*(i+1)), rc)
			l.Append(at(1000*(i+1)+10), rrc.ReconfigComplete{Rat: band.RATNR})
		}
		l.Append(at(5000), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
		tb := NewBuilder()
		if _, err := sig.ParseTo(strings.NewReader(l.String()), false, nil, tb); err != nil {
			t.Fatalf("indices %d and %d: %v", lo, hi, err)
		}
		return tb.Finish()
	}
	want, got := extract(2, 5), extract(32, 60)
	wantSCells := [][]cell.Ref{nil, nil, {a, b}, {a}, {c}, nil}
	if len(want.Steps) != len(wantSCells) {
		t.Fatalf("indices 2 and 5: %d steps, want %d", len(want.Steps), len(wantSCells))
	}
	if mod := want.Steps[4].Evidence.Mod; mod == nil || *mod != (SCellMod{Released: a, Added: c}) {
		t.Fatalf("indices 2 and 5: re-use of index 2 carries Mod %v, want %v → %v", mod, a, c)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("indices 32 and 60: %d steps, want %d", len(got.Steps), len(want.Steps))
	}
	for i, s := range got.Steps {
		var scells []cell.Ref
		if s.Set.MCG != nil {
			scells = s.Set.MCG.SCells
		}
		if !slices.Equal(scells, wantSCells[i]) || s.Set.Key() != want.Steps[i].Set.Key() {
			t.Errorf("step %d: set %v, want %v", i, s.Set, want.Steps[i].Set)
		}
		for _, m := range [][2]*SCellMod{{s.Evidence.Mod, want.Steps[i].Evidence.Mod}, {s.Evidence.PendingMod, want.Steps[i].Evidence.PendingMod}} {
			if (m[0] == nil) != (m[1] == nil) || m[0] != nil && *m[0] != *m[1] {
				t.Errorf("step %d: modification %v, want %v", i, m[0], m[1])
			}
		}
	}
}

// TestSCellIndicesEndWithTheirPCell: an establishment, a
// re-establishment and a handover each free every sCellIndex, so a cell
// added at an index that was live before is an addition, not a
// modification.
func TestSCellIndicesEndWithTheirPCell(t *testing.T) {
	pcell, target, old, fresh := ref("393@521310"), ref("104@521310"), ref("273@387410"), ref("371@387410")
	for _, tc := range []struct {
		name     string
		boundary []rrc.Message
	}{
		{"establishment", []rrc.Message{rrc.Release{Rat: band.RATNR}, rrc.SetupComplete{Rat: band.RATNR, Cell: pcell}}},
		{"re-establishment", []rrc.Message{rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure}, rrc.ReestablishmentComplete{Cell: pcell}}},
		{"handover", []rrc.Message{rrc.Reconfig{Rat: band.RATNR, Serving: pcell, Mobility: &target}, rrc.ReconfigComplete{Rat: band.RATNR}}},
	} {
		l := &sig.Log{}
		l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
		l.Append(at(200), rrc.Reconfig{Rat: band.RATNR, Serving: pcell, AddSCells: []rrc.SCellEntry{{Index: 1, Cell: old}}})
		l.Append(at(210), rrc.ReconfigComplete{Rat: band.RATNR})
		for i, m := range tc.boundary {
			l.Append(at(1000+10*i), m)
		}
		l.Append(at(2000), rrc.Reconfig{Rat: band.RATNR, Serving: pcell, AddSCells: []rrc.SCellEntry{{Index: 1, Cell: fresh}}})
		l.Append(at(2010), rrc.ReconfigComplete{Rat: band.RATNR})
		tl := Extract(l)
		last := tl.Steps[len(tl.Steps)-1]
		if last.Evidence.Mod != nil || !slices.Equal(last.Set.MCG.SCells, []cell.Ref{fresh}) {
			t.Errorf("%s: adding %v at index 1 gave SCells %v and Mod %v, want [%v] and none",
				tc.name, fresh, last.Set.MCG.SCells, last.Evidence.Mod, fresh)
		}
	}
}

func TestReleaseKindStrings(t *testing.T) {
	for k, want := range map[ReleaseKind]string{
		CauseNone: "none", CauseException: "exception", CauseRRCRelease: "rrc-release",
		CauseReestablishment: "reestablishment", CauseSCGRelease: "scg-release",
		CauseHandoverNoSCG: "handover-no-scg",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k, want)
		}
	}
	if ReleaseKind(99).String() != "ReleaseKind(99)" {
		t.Error("unknown kind string")
	}
}

// TestExtractInvariants property: over arbitrary-but-valid message
// sequences, the timeline always starts IDLE, step times are
// nondecreasing, and consecutive steps have distinct keys.
func TestExtractInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &sig.Log{}
		now := 0
		connected := false
		var pcell cell.Ref
		idx := 1
		for i := 0; i < int(n%40)+5; i++ {
			now += 100 + rng.Intn(3000)
			switch rng.Intn(6) {
			case 0:
				pcell = cell.Ref{PCI: 100 + rng.Intn(300), Channel: 521310}
				l.Append(at(now), rrc.SetupComplete{Rat: band.RATNR, Cell: pcell})
				connected = true
			case 1:
				if connected {
					sc := cell.Ref{PCI: 100 + rng.Intn(300), Channel: 387410}
					l.Append(at(now), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
						AddSCells: []rrc.SCellEntry{{Index: idx, Cell: sc}}})
					l.Append(at(now+10), rrc.ReconfigComplete{Rat: band.RATNR})
					idx++
				}
			case 2:
				if connected {
					l.Append(at(now), rrc.Release{Rat: band.RATNR})
					connected = false
				}
			case 3:
				if connected {
					l.Append(at(now), rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
					connected = false
				}
			case 4:
				l.Append(at(now), rrc.MeasReport{Rat: band.RATNR})
			case 5:
				if connected {
					l.Append(at(now), rrc.Reconfig{Rat: band.RATNR, Serving: pcell,
						ReleaseSCells: []int{1 + rng.Intn(idx)}})
					l.Append(at(now+10), rrc.ReconfigComplete{Rat: band.RATNR})
				}
			}
		}
		tl := Extract(l)
		if len(tl.Steps) == 0 || !tl.Steps[0].Set.IsIdle() || tl.Steps[0].At != 0 {
			return false
		}
		for i := 1; i < len(tl.Steps); i++ {
			if tl.Steps[i].At < tl.Steps[i-1].At {
				return false
			}
			if tl.Steps[i].Set.Key() == tl.Steps[i-1].Set.Key() {
				return false // consecutive steps must differ
			}
		}
		// TimeIn5G over the whole run is bounded by the duration.
		if on := tl.TimeIn5G(0, tl.Duration); on < 0 || on > tl.Duration {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestOccupancy(t *testing.T) {
	tl := Extract(s1e3Log(2))
	o := tl.Occupy()
	if o.Total != tl.Duration || o.Steps != len(tl.Steps) {
		t.Errorf("totals: %+v", o)
	}
	if o.Idle+o.SA+o.NSA+o.LTE != o.Total {
		t.Errorf("occupancy does not partition the run: %+v", o)
	}
	if o.On5G() != tl.TimeIn5G(0, tl.Duration) {
		t.Errorf("On5G %v != TimeIn5G %v", o.On5G(), tl.TimeIn5G(0, tl.Duration))
	}
	if o.Swings != 2 {
		t.Errorf("swings = %d, want 2", o.Swings)
	}
	if r := o.OffRatio(); r <= 0 || r >= 1 {
		t.Errorf("OffRatio = %v", r)
	}
	if (Occupancy{}).OffRatio() != 0 {
		t.Error("empty occupancy ratio should be 0")
	}
}

// TestFromLogResyncsClockRegression: a salvaged capture whose logger
// restarted mid-run (timestamps reset to zero) folds into a monotonic
// timeline with the two segments treated as contiguous.
func TestFromLogResyncsClockRegression(t *testing.T) {
	l := &sig.Log{}
	l.Append(at(10_000), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(20_000), rrc.Release{Rat: band.RATNR})
	// Logger restart: the clock regresses to near zero.
	l.Append(at(1_000), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(5_000), rrc.Release{Rat: band.RATNR})

	tl := FromLog(l)
	prev := time.Duration(-1)
	for i, s := range tl.Steps {
		if s.At < prev {
			t.Fatalf("step %d at %v regresses below %v", i, s.At, prev)
		}
		prev = s.At
	}
	// The second segment re-anchors at 20s: its release lands at 24s.
	if got := tl.Steps[len(tl.Steps)-1].At; got != 24*time.Second {
		t.Errorf("final step at %v, want 24s", got)
	}
	if tl.Duration != 24*time.Second {
		t.Errorf("duration = %v, want 24s", tl.Duration)
	}
	// Occupancy stays NaN-free and positive despite the regression.
	occ := tl.Occupy()
	if occ.On5G() != 14*time.Second {
		t.Errorf("5G time = %v, want 14s (10s + 4s)", occ.On5G())
	}
}

// TestFromLogCleanUnchanged: monotonic captures are untouched by the
// resync path — Extract and FromLog agree step for step.
func TestFromLogCleanUnchanged(t *testing.T) {
	l := s1e3Log(3)
	tl := FromLog(l)
	for i := 1; i < len(tl.Steps); i++ {
		if tl.Steps[i].At < tl.Steps[i-1].At {
			t.Fatalf("clean log produced non-monotonic steps")
		}
	}
	if tl.Duration != l.Duration() {
		t.Errorf("duration = %v, want %v", tl.Duration, l.Duration())
	}
}

// TestBuilderTeeSteps: a tee registered on a Builder observes every
// timeline step exactly once and in order — including steps appended
// before registration, which are replayed immediately so a late
// consumer (the stream detector) starts from the same step zero the
// finished timeline has.
func TestBuilderTeeSteps(t *testing.T) {
	log := s1e3Log(2)
	b := NewBuilder()
	var seen []Step
	// NewBuilder itself pushes the initial IDLE step before any event;
	// registering afterwards must replay it.
	b.TeeSteps(func(s Step) { seen = append(seen, s) })
	for _, e := range log.Events {
		b.Append(e.At, e.Msg)
	}
	tl := b.Finish()
	if len(seen) != len(tl.Steps) {
		t.Fatalf("tee saw %d steps, timeline has %d", len(seen), len(tl.Steps))
	}
	for i := range seen {
		if seen[i].At != tl.Steps[i].At || seen[i].Set.Key() != tl.Steps[i].Set.Key() {
			t.Errorf("step %d: tee saw {%v %s}, timeline has {%v %s}",
				i, seen[i].At, seen[i].Set.Key(), tl.Steps[i].At, tl.Steps[i].Set.Key())
		}
	}
	if len(seen) == 0 || !seen[0].Set.IsIdle() {
		t.Error("tee missed the initial IDLE step")
	}

	// A nil tee detaches cleanly.
	b2 := NewBuilder()
	calls := 0
	b2.TeeSteps(func(Step) { calls++ })
	b2.TeeSteps(nil)
	for _, e := range log.Events {
		b2.Append(e.At, e.Msg)
	}
	b2.Finish()
	if calls != 1 { // only the replayed initial IDLE step
		t.Errorf("detached tee called %d times, want 1", calls)
	}
}

// stepCollector is a teed consumer big enough (and pointer-carrying)
// to get its own allocation, so its finalizer reliably runs once it is
// unreachable.
type stepCollector struct{ seen []Step }

func (c *stepCollector) push(s Step) { c.seen = append(c.seen, s) }

// finishTeed folds log through a Builder with a consumer teed in and
// returns only the finished timeline; freed closes once the garbage
// collector has reclaimed the consumer.
func finishTeed(log *sig.Log, freed chan struct{}) *Timeline {
	c := &stepCollector{}
	runtime.SetFinalizer(c, func(*stepCollector) { close(freed) })
	b := NewBuilder()
	b.TeeSteps(c.push)
	for _, e := range log.Events {
		b.Append(e.At, e.Msg)
	}
	return b.Finish()
}

// TestFinishDetachesTimeline: a finished Timeline must not keep its
// Builder reachable. A campaign record holds its timeline for the whole
// study, so a timeline pointing into the builder would pin the folding
// maps and, through TeeSteps, the teed consumer (a stream detector and
// its window) for every run.
func TestFinishDetachesTimeline(t *testing.T) {
	freed := make(chan struct{})
	tl := finishTeed(s1e3Log(2), freed)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if len(tl.Steps) == 0 {
				t.Error("finished timeline has no steps")
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	runtime.KeepAlive(tl)
	t.Fatal("the teed consumer is still reachable through the finished timeline")
}
