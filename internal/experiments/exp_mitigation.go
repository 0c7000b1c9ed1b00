package experiments

import (
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/uesim"
)

// MitigationStudy answers the paper's Q3 ("what can be done to mitigate
// such loops?") constructively: each loop family's root cause gets the
// corresponding configuration remedy, and the same sites are re-run
// with the fix applied. Loops should disappear — or, for the OPV N2E2
// recovery fix, collapse to sub-second impact.
func MitigationStudy(c *Context) *Result {
	r := &Result{ID: "mitigation", Title: "Q3 — per-cause mitigations"}
	r.addf("%-34s %12s %12s", "scenario", "loops before", "loops after")

	// Each scenario runs its site without and then with the remedy.
	const runs = 8
	execute := func(op *policy.Operator, dep *deploy.Deployment, cl *deploy.Cluster,
		fixes uesim.Fixes) (without, with []*campaign.Record) {
		var jobs []campaign.Job
		for _, f := range []uesim.Fixes{{}, fixes} {
			for i := 0; i < runs; i++ {
				jobs = append(jobs, campaign.Job{Config: uesim.Config{
					Op: op, Field: dep.Field, Cluster: cl,
					Duration: 4 * time.Minute,
					Seed:     c.Opts.Seed*91 + int64(i),
					Fixes:    f,
				}})
			}
		}
		recs := c.run("mitigation", jobs)
		return recs[:runs], recs[runs:]
	}
	measure := func(recs []*campaign.Record, want func(core.Subtype) bool) (loops int, offSeconds float64) {
		for _, rec := range recs {
			a := rec.Analysis
			for li, loop := range a.Loops {
				if !want(a.Subtypes[li]) {
					continue
				}
				loops++
				for _, cm := range loop.Cycles() {
					offSeconds += cm.Off.Seconds()
				}
				break
			}
		}
		return
	}

	// A scenario per loop family: the site archetype, the operator, and
	// the remedy under test.
	type scenario struct {
		name   string
		op     *policy.Operator
		areaID string
		arch   deploy.Archetype
		fixes  uesim.Fixes
		want   func(core.Subtype) bool
	}
	isS1 := func(s core.Subtype) bool { return s.Type() == core.TypeS1 }
	scenarios := []scenario{
		{"S1E1/S1E2: release only the bad apple", policy.OPT(), "A1", deploy.ArchS1E2,
			uesim.Fixes{ReleaseOnlyBadApple: true}, isS1},
		{"S1E3: stop retrying failed targets", policy.OPT(), "A1", deploy.ArchS1E3,
			uesim.Fixes{BlacklistFailedModTargets: true}, isS1},
		{"S1E3: A3 time-to-trigger = 3", policy.OPT(), "A1", deploy.ArchS1E3,
			uesim.Fixes{A3TimeToTriggerReports: 3}, isS1},
		{"N2E1: align handover policies", policy.OPA(), "A6", deploy.ArchN2E1,
			uesim.Fixes{AlignHandoverPolicies: true},
			func(s core.Subtype) bool { return s == core.N2E1 }},
		{"N1: measurement-gated redirects", policy.OPA(), "A6", deploy.ArchN1E1,
			uesim.Fixes{AlignHandoverPolicies: true},
			func(s core.Subtype) bool { return s.Type() == core.TypeN1 }},
	}
	for _, sc := range scenarios {
		dep, cl := findArchCluster(sc.op, sc.areaID, sc.arch, c.Opts.Seed)
		if cl == nil {
			r.addf("%-34s %12s %12s", sc.name, "n/a", "n/a")
			continue
		}
		without, with := execute(sc.op, dep, cl, sc.fixes)
		before, _ := measure(without, sc.want)
		after, _ := measure(with, sc.want)
		r.addf("%-34s %8d/%-3d %8d/%-3d", sc.name, before, runs, after, runs)
		r.set("before_"+sc.arch.String(), float64(before))
		r.set("after_"+sc.arch.String(), float64(after))
	}

	// The OPV N2E2 remedy reduces impact rather than removing the loop:
	// compare OFF seconds with and without fast recovery.
	op := policy.OPV()
	dep, cl := findArchCluster(op, "A11", deploy.ArchN2E2, c.Opts.Seed)
	if cl != nil {
		isN2E2 := func(s core.Subtype) bool { return s == core.N2E2 }
		without, with := execute(op, dep, cl, uesim.Fixes{FastSCGRecovery: true})
		_, offBefore := measure(without, isN2E2)
		_, offAfter := measure(with, isN2E2)
		r.addf("%-34s %9.0fs %11.0fs", "N2E2 (OPV): fast SCG recovery", offBefore, offAfter)
		r.set("n2e2_off_before_s", offBefore)
		r.set("n2e2_off_after_s", offAfter)
	}
	r.addf("each remedy removes the inconsistency behind one loop family;")
	r.addf("the OPV recovery fix shrinks the damage when the loop remains.")
	return r
}

// findArchCluster locates a cluster of the given archetype, preferring
// the most loop-prone S1E3 site when applicable.
func findArchCluster(op *policy.Operator, areaID string, arch deploy.Archetype, seed int64) (*deploy.Deployment, *deploy.Cluster) {
	spec, ok := deploy.AreaByID(areaID)
	if !ok {
		return nil, nil
	}
	for s := seed + 1; s < seed+30; s++ {
		dep := deploy.Build(op, spec, s)
		var best *deploy.Cluster
		bestGap := 1e18
		for _, cl := range dep.Clusters {
			if cl.Arch != arch {
				continue
			}
			gap := 0.0
			if pair := cl.CellsOnChannel(387410); len(pair) == 2 {
				gap = dep.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
				if gap < 0 {
					gap = -gap
				}
			}
			if best == nil || gap < bestGap {
				best, bestGap = cl, gap
			}
		}
		if best != nil {
			return dep, best
		}
	}
	return nil, nil
}
