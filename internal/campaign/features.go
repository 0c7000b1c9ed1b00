package campaign

import (
	"context"
	"math"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/units"
)

// This file extracts the §6 prediction features from a deployment and
// runs the fine-grained (dense) spatial study around a showcase
// location (Fig. 20–22).

// problemChannelSA is the channel whose SCell pair drives the S1E3
// feature (F16).
const problemChannelSA = 387410

// Combos computes the §6 model features of a cluster at a point: the
// priority-adjusted PCell gap between the target anchor and the best
// alternative (F17), the median RSRP gap of the problematic co-channel
// SCell pair (F16), and the configured partner's median RSRP (the
// S1E1/S1E2 feature).
func Combos(op *policy.Operator, d *deploy.Deployment, cl *deploy.Cluster, p geo.Point) []core.Combo {
	// Rank anchors by median + reselection priority, like the UE does.
	type scored struct {
		c     *cell.Cell
		score units.DBm
	}
	var anchors []scored
	for _, c := range cl.Cells {
		if c.RAT != band.RATNR {
			continue
		}
		switch c.Band() {
		case "n41", "n71":
			m := d.Field.Median(c, p)
			anchors = append(anchors, scored{c, m.RSRPDBm.Add(op.AnchorPriorityDB[c.Channel])})
		}
	}
	if len(anchors) == 0 {
		return nil
	}
	best := anchors[0]
	for _, a := range anchors[1:] {
		if a.score > best.score {
			best = a
		}
	}
	var alt *scored
	for i := range anchors {
		if anchors[i].c.PCI != best.c.PCI {
			if alt == nil || anchors[i].score > alt.score {
				alt = &anchors[i]
			}
		}
	}
	pcellGap := units.DB(20.0) // no alternative: the target combination always wins
	if alt != nil {
		pcellGap = best.score.Sub(alt.score)
	}

	// The problematic pair: the configured partner is the co-PCI cell;
	// the other co-channel cell is the modification candidate.
	pair := cl.CellsOnChannel(problemChannelSA)
	var partner, other *cell.Cell
	for _, c := range pair {
		if c.PCI == best.c.PCI {
			partner = c
		} else if other == nil || c.PCI != best.c.PCI {
			other = c
		}
	}
	combo := core.Combo{PCellGapDB: pcellGap, SCellGapDB: 40, WorstSCellRSRPDBm: -60}
	if partner != nil {
		pm := d.Field.Median(partner, p)
		if other != nil {
			om := d.Field.Median(other, p)
			combo.SCellGapDB = pm.RSRPDBm.Sub(om.RSRPDBm)
		}
	}
	// The worst-SCell feature (S1E1/S1E2) scans *every* configured
	// partner of the target anchor — any one of them can be the bad
	// apple, not just the 387410 one.
	worst := units.DBm(math.Inf(1))
	for _, c := range cl.Cells {
		if c.RAT != band.RATNR || c.PCI != best.c.PCI || c.Channel == best.c.Channel {
			continue
		}
		if c.Band() != "n41" && c.Band() != "n25" {
			continue
		}
		m := d.Field.Median(c, p)
		if m.RSRPDBm < worst {
			worst = m.RSRPDBm
		}
	}
	if !math.IsInf(worst.Float(), 1) {
		combo.WorstSCellRSRPDBm = worst
	}
	return []core.Combo{combo}
}

// DensePoint is one grid location of the fine-grained spatial study.
type DensePoint struct {
	P geo.Point
	// ProbS1E3 and ProbS1 are measured loop likelihoods over the
	// point's runs.
	ProbS1E3 float64
	ProbS1   float64
	// TargetUsage is the measured fraction of runs anchored on the
	// target PCell group (the combination whose SCells include the
	// problematic pair) — Fig. 21b's y-axis.
	TargetUsage float64
	Combo       core.Combo
	// PairRSRP holds the median RSRP of the two 387410 cells at this
	// point (Fig. 20c/d's walking maps).
	PairRSRP [2]units.DBm
}

// DenseStudy runs the Fig. 20 protocol: stationary runs on a grid of
// locations around a showcase cluster, recording per-point loop
// probabilities and model features. The grid's runs are side jobs
// executed on the study's engine (Execute, label "dense"); the error is
// Execute's.
func DenseStudy(op *policy.Operator, d *deploy.Deployment, cl *deploy.Cluster,
	spacingM float64, steps, runsPerPoint int, opts Options) ([]DensePoint, error) {
	opts = opts.withDefaults()
	grid := geo.DenseGrid(cl.Loc, spacingM, steps)
	jobs := make([]Job, 0, len(grid)*runsPerPoint)
	for gi, p := range grid {
		for ri := 0; ri < runsPerPoint; ri++ {
			jobs = append(jobs, Job{Config: uesim.Config{Op: op, Field: d.Field, Cluster: cl,
				Device: opts.Device, Loc: p, Duration: opts.Duration,
				Seed: opts.Seed*99991 + int64(gi)*613 + int64(ri)*31 + 7}})
		}
	}
	recs, err := Execute(context.TODO(), "dense", jobs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]DensePoint, 0, len(grid))
	pair := cl.CellsOnChannel(problemChannelSA)
	for gi, p := range grid {
		dp := DensePoint{P: p}
		if combos := Combos(op, d, cl, p); len(combos) > 0 {
			dp.Combo = combos[0]
		}
		for i, c := range pair {
			if i < 2 {
				dp.PairRSRP[i] = d.Field.Median(c, p).RSRPDBm
			}
		}
		// The target PCell group shares the PCI of the problematic
		// partner SCell (F17).
		targetPCI := 0
		if len(pair) > 0 {
			targetPCI = pair[0].PCI
			for _, c := range pair {
				if m := d.Field.Median(c, cl.Loc); m.RSRPDBm > d.Field.Median(pair[0], cl.Loc).RSRPDBm {
					targetPCI = c.PCI
				}
			}
		}
		var s1e3, s1, targetUsed int
		for _, rec := range recs[gi*runsPerPoint : (gi+1)*runsPerPoint] {
			if rec.HasLoop() {
				st := rec.Subtype()
				if st == core.S1E3 {
					s1e3++
				}
				if st.Type() == core.TypeS1 {
					s1++
				}
			}
			if anchoredOn(rec.Timeline, targetPCI) {
				targetUsed++
			}
		}
		dp.ProbS1E3 = float64(s1e3) / float64(runsPerPoint)
		dp.ProbS1 = float64(s1) / float64(runsPerPoint)
		dp.TargetUsage = float64(targetUsed) / float64(runsPerPoint)
		out = append(out, dp)
	}
	return out, nil
}

// anchoredOn reports whether a run's first established PCell carries
// the given PCI (the paper's usage criterion: the target SCells are
// used iff the target PCell group is).
func anchoredOn(tl *trace.Timeline, pci int) bool {
	for _, s := range tl.Steps {
		if s.Set.MCG != nil {
			return s.Set.MCG.Primary.PCI == pci
		}
	}
	return false
}

// TrainingSamples converts dense points into §6 training samples.
func TrainingSamples(points []DensePoint, s1e3Only bool) []core.Sample {
	out := make([]core.Sample, 0, len(points))
	for _, p := range points {
		truth := p.ProbS1
		if s1e3Only {
			truth = p.ProbS1E3
		}
		out = append(out, core.Sample{Combos: []core.Combo{p.Combo}, Truth: truth})
	}
	return out
}

// ResidualSamples trains the S1E1/S1E2 side of the overall S1 model:
// the truth is the non-S1E3 share of the S1 probability, so combining
// the two sub-models as independent triggers does not double-count.
func ResidualSamples(points []DensePoint) []core.Sample {
	out := make([]core.Sample, 0, len(points))
	for _, p := range points {
		truth := p.ProbS1 - p.ProbS1E3
		if truth < 0 {
			truth = 0
		}
		out = append(out, core.Sample{Combos: []core.Combo{p.Combo}, Truth: truth})
	}
	return out
}

// SparseSamples builds evaluation samples for every location of an
// operator's sparse study: features from the deployment, truth from the
// measured run records.
func SparseSamples(st *Study, op *policy.Operator, s1e3Only bool) []core.Sample {
	var out []core.Sample
	for _, area := range st.Areas {
		if area.Spec.Operator != op.Name {
			continue
		}
		byLoc := area.LocationRecords()
		for li, cl := range area.Dep.Clusters {
			recs := byLoc[li]
			if len(recs) == 0 {
				continue
			}
			hits := 0
			for _, r := range recs {
				if !r.HasLoop() {
					continue
				}
				st := r.Subtype()
				if s1e3Only && st == core.S1E3 {
					hits++
				} else if !s1e3Only && st.Type() == core.TypeS1 {
					hits++
				}
			}
			out = append(out, core.Sample{
				Combos: Combos(op, area.Dep, cl, cl.Loc),
				Truth:  float64(hits) / float64(len(recs)),
			})
		}
	}
	return out
}

// FindShowcase locates an S1E3 cluster analogous to the paper's P16 —
// one whose SCell-pair gap is small — in an area deployment. It returns
// nil when the area has no S1E3 cluster.
func FindShowcase(d *deploy.Deployment) *deploy.Cluster {
	var best *deploy.Cluster
	bestGap := units.DB(1e9)
	for _, cl := range d.Clusters {
		if cl.Arch != deploy.ArchS1E3 {
			continue
		}
		pair := cl.CellsOnChannel(problemChannelSA)
		if len(pair) < 2 {
			continue
		}
		a := d.Field.Median(pair[0], cl.Loc).RSRPDBm
		b := d.Field.Median(pair[1], cl.Loc).RSRPDBm
		gap := a.Sub(b)
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap, best = gap, cl
		}
	}
	return best
}
