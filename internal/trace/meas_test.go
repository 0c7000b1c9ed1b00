package trace

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// measOracle is the ON-period bookkeeping the slot table replaced: each
// cell's latest measurement in a map that every SetupComplete and
// ReestablishmentComplete clears.
type measOracle struct {
	reports int
	meas    map[cell.Ref]meas.Measurement
}

func (o *measOracle) handle(m rrc.Message) {
	switch v := m.(type) {
	case rrc.SetupComplete, rrc.ReestablishmentComplete:
		o.reports = 0
		clear(o.meas)
	case rrc.MeasReport:
		o.reports++
		for _, e := range v.Entries {
			o.meas[e.Cell] = e.Meas
		}
	}
}

// evidence is the S1E1/S1E2 part of a release's evidence over the
// serving set s.
func (o *measOracle) evidence(s cell.Set) Evidence {
	ev := newEvidence(CauseNone)
	ev.Reports = o.reports
	if s.MCG == nil {
		return ev
	}
	for _, sc := range s.MCG.SCells {
		m, ok := o.meas[sc]
		if !ok {
			if o.reports > 0 {
				ev.UnmeasuredSCells = append(ev.UnmeasuredSCells, sc)
			}
			continue
		}
		if m.RSRPDBm < ev.WorstSCellRSRP {
			ev.WorstSCellRSRP = m.RSRPDBm
		}
		if m.RSRQDB <= PoorRSRQThresholdDB {
			ev.PoorSCells = append(ev.PoorSCells, sc)
		}
	}
	return ev
}

// sameMeasEvidence reports whether got and want agree on every field
// the measurement bookkeeping feeds.
func sameMeasEvidence(got, want Evidence) bool {
	return got.Reports == want.Reports &&
		slices.Equal(got.UnmeasuredSCells, want.UnmeasuredSCells) &&
		slices.Equal(got.PoorSCells, want.PoorSCells) &&
		got.WorstSCellRSRP == want.WorstSCellRSRP
}

// TestMeasSlotsMatchMapOracle folds seeded random event streams and,
// after every event, holds the extractor's slot table to the map it
// replaced: release evidence over the current set, and one slot per
// cell reported in the current ON period, so a period of fresh cells
// leaves only its own. Reports draw from a pool of 8 cells, which keeps
// every period on the linear scan, and from a pool of 64, whose periods
// cross measIndexAt cells mid-period and switch to the map index.
func TestMeasSlotsMatchMapOracle(t *testing.T) {
	for _, pool := range []int{8, 64} {
		indexed := false
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cells := make([]cell.Ref, pool)
			for i := range cells {
				cells[i] = cell.Ref{PCI: 100 + i, Channel: []int{387410, 398410, 501390}[i%3]}
			}
			pcell := func() cell.Ref { return cell.Ref{PCI: rng.Intn(4), Channel: 521310} }
			b := NewBuilder()
			o := measOracle{meas: map[cell.Ref]meas.Measurement{}}
			now := 0
			emit := func(m rrc.Message) {
				now += 1 + rng.Intn(500)
				want := o.evidence(b.ex.cur)
				steps := len(b.ex.tl.Steps)
				b.Append(at(now), m)
				o.handle(m)
				if len(b.ex.tl.Steps) > steps {
					if got := b.ex.tl.Steps[steps].Evidence; got.Kind != CauseNone && !sameMeasEvidence(got, want) {
						t.Fatalf("pool %d seed %d: %s at %v: evidence %+v, oracle %+v", pool, seed, m.Kind(), at(now), got, want)
					}
				}
				if got, want := b.ex.releaseEvidence(CauseNone), o.evidence(b.ex.cur); !sameMeasEvidence(got, want) {
					t.Fatalf("pool %d seed %d: after %s at %v: evidence %+v, oracle %+v", pool, seed, m.Kind(), at(now), got, want)
				}
				if len(b.ex.meas) != len(o.meas) {
					t.Fatalf("pool %d seed %d: after %s at %v: %d slots, %d cells reported this period", pool, seed, m.Kind(), at(now), len(b.ex.meas), len(o.meas))
				}
				indexed = indexed || b.ex.measIdx != nil
			}
			reconfig := func(rc rrc.Reconfig) {
				rc.Rat = band.RATNR
				emit(rc)
				emit(rrc.ReconfigComplete{Rat: band.RATNR})
			}
			for i := 0; i < 400; i++ {
				switch r := rng.Intn(16); {
				case r == 0:
					emit(rrc.SetupComplete{Rat: band.RATNR, Cell: pcell()})
				case r == 1:
					reconfig(rrc.Reconfig{AddSCells: []rrc.SCellEntry{{Index: 1 + rng.Intn(8), Cell: cells[rng.Intn(pool)]}}})
				case r == 2:
					reconfig(rrc.Reconfig{ReleaseSCells: []int{1 + rng.Intn(8)}})
				case r == 3:
					to := pcell()
					reconfig(rrc.Reconfig{Mobility: &to})
				case r == 4:
					emit(rrc.Release{Rat: band.RATNR})
				case r == 5:
					emit(rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
				case r == 6:
					emit(rrc.ReestablishmentRequest{Cause: rrc.ReestOtherFailure})
					emit(rrc.ReestablishmentComplete{Cell: pcell()})
				default:
					entries := make([]rrc.MeasEntry, 1+rng.Intn(12))
					for k := range entries {
						entries[k] = rrc.MeasEntry{Cell: cells[rng.Intn(pool)], Role: rrc.RoleCandidate,
							Meas: meas.Measurement{RSRPDBm: units.DBm(-70 - rng.Intn(50)), RSRQDB: units.DB(-5 - rng.Intn(25))}}
					}
					emit(rrc.MeasReport{Rat: band.RATNR, Entries: entries})
				}
			}
		}
		if want := pool > measIndexAt; indexed != want {
			t.Errorf("pool %d: some period indexed its slots = %v, want %v", pool, indexed, want)
		}
	}
}
