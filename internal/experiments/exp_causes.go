package experiments

import (
	"math/rand"
	"strconv"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/trace"
)

// Table4 prints the static device registry of Table 4.
func Table4(c *Context) *Result {
	r := &Result{ID: "table4", Title: "Test phone models"}
	r.addf("%-15s %-9s %-36s %-11s %-8s", "Model", "Release", "Chipset", "Android", "3GPP")
	for _, d := range device.All() {
		spec := d.RRCSpec
		if spec == "" {
			spec = "-"
		}
		r.addf("%-15s %-9s %-36s %-11s %-8s", d.Name, d.Release, d.Chipset, d.Android, spec)
	}
	r.set("models", float64(len(device.All())))
	return r
}

// Fig12 regenerates the cross-device NSA study: five locations per NSA
// operator, several runs per phone model, loop ratio per (location,
// model).
func Fig12(c *Context) *Result {
	r := &Result{ID: "fig12", Title: "Loops across phone models over 5G NSA"}
	runs := 5
	if c.Opts.RunScale > 0 && c.Opts.RunScale < 1 {
		runs = 3
	}
	devices := device.All()
	for _, opName := range []string{"OPA", "OPV"} {
		op := policy.ByName(opName)
		st := c.Study()
		// Choose five loop-prone locations from the operator's first
		// areas, like the paper revisits earlier loop locations.
		type site struct {
			area *campaign.AreaResult
			loc  int
		}
		var sites []site
		for _, a := range st.Areas {
			if a.Spec.Operator != opName {
				continue
			}
			lik := a.LoopLikelihood()
			for li, v := range lik {
				if v > 0.5 {
					sites = append(sites, site{a, li})
				}
				if len(sites) == 5 {
					break
				}
			}
			if len(sites) == 5 {
				break
			}
		}
		// Each site × phone × run is the study's run at that location,
		// on that phone, under a seed of its own.
		var jobs []campaign.Job
		for si, s := range sites {
			for _, dev := range devices {
				for ri := 0; ri < runs; ri++ {
					opts := c.Opts
					opts.Device = dev
					opts.Seed = c.Opts.Seed + int64(si*1000+ri*17+len(dev.Name))
					jobs = append(jobs, campaign.StudyJob(op, s.area.Dep, s.loc, ri, opts))
				}
			}
		}
		recs := c.run("fig12", jobs)
		for si := range sites {
			line := ""
			for _, dev := range devices {
				hits := 0
				for _, rec := range recs[:runs] {
					if rec.HasLoop() {
						hits++
					}
				}
				recs = recs[runs:]
				ratio := float64(hits) / float64(runs)
				line += pct(ratio) + " "
				key := "ratio_" + opName + "_" + dev.Name
				r.set(key, r.Values[key]+ratio/float64(len(sites)))
			}
			r.addf("%s P%s%d: %s", opName, opName[2:], si+1, line)
		}
		r.addf("%s columns: 13R | 13 | 12R | 10Pro | S23 | Pixel5", opName)
	}
	return r
}

// Fig13 prints the loop-type taxonomy with the observed trigger for
// each sub-type, verified against the study's classified instances.
func Fig13(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig13", Title: "Loop types, sub-types and triggers"}
	triggers := map[core.Subtype]string{
		core.S1E1: "SCell measurement configured but never reported",
		core.S1E2: "SCell reported very poor, no corrective command",
		core.S1E3: "SCell modification commanded but fails",
		core.N1E1: "RLF on the 4G PCell",
		core.N1E2: "4G PCell handover failure",
		core.N2E1: "successful 4G handover drops the SCG",
		core.N2E2: "SCG failure handling",
	}
	counts := map[core.Subtype]int{}
	for _, op := range opOrder {
		for sub, n := range campaign.SubtypeCounts(st.Records(op)) {
			counts[sub] += n
		}
	}
	for _, sub := range core.AllSubtypes {
		r.addf("%-5s (%s, FSM %s): %-48s observed %d×",
			sub, sub.Type(), fsmOf(sub.Type()), triggers[sub], counts[sub])
		r.set("count_"+sub.String(), float64(counts[sub]))
	}
	return r
}

// fsmOf names the FSM of a loop type (Fig. 13's left column).
func fsmOf(t core.LoopType) string {
	switch t {
	case core.TypeS1:
		return "5G SA ⇄ IDLE"
	case core.TypeN1:
		return "5G NSA ⇄ IDLE*"
	case core.TypeN2:
		return "5G NSA ⇄ 4G"
	default:
		// TypeUnknown: an unclassified loop sits in no Fig. 13 FSM.
		return "?"
	}
}

// Fig16 regenerates the per-area loop-sub-type breakdown.
func Fig16(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig16", Title: "Loop breakdown per area"}
	r.addf("%-4s %-4s | %s", "Area", "Op", "sub-type shares")
	opTotals := map[string]map[core.Subtype]int{}
	for _, a := range st.Areas {
		counts := campaign.SubtypeCounts(a.Records)
		total := 0
		for _, n := range counts {
			total += n
		}
		if opTotals[a.Spec.Operator] == nil {
			opTotals[a.Spec.Operator] = map[core.Subtype]int{}
		}
		line := ""
		for _, sub := range core.AllSubtypes {
			if counts[sub] == 0 {
				continue
			}
			opTotals[a.Spec.Operator][sub] += counts[sub]
			line += sub.String() + "=" + pct(stats.Ratio(counts[sub], total)) + " "
			r.set("share_"+a.Spec.ID+"_"+sub.String(), stats.Ratio(counts[sub], total))
		}
		r.addf("%-4s %-4s | %s", a.Spec.ID, a.Spec.Operator, line)
	}
	for _, op := range opOrder {
		counts := opTotals[op]
		total := 0
		for _, n := range counts {
			total += n
		}
		if total == 0 {
			continue
		}
		line := ""
		for _, sub := range core.AllSubtypes {
			if counts[sub] == 0 {
				continue
			}
			line += sub.String() + "=" + pct(stats.Ratio(counts[sub], total)) + " "
			r.set("share_"+op+"_"+sub.String(), stats.Ratio(counts[sub], total))
		}
		r.addf("%-4s all  | %s", op, line)
	}
	return r
}

// Table5 regenerates the OPT channel analysis: per-channel usage share
// in loop vs no-loop runs, and the SCell-modification failure ratio per
// target channel.
func Table5(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "table5", Title: "Channel usage and SCell-modification failures (OPT)"}
	chans := []int{126270, 387410, 398410, 501390, 521310}

	loopUse := map[int]int{}
	noLoopUse := map[int]int{}
	modAttempts := map[int]int{}
	modFailures := map[int]int{}
	for _, rec := range st.Records("OPT") {
		// Modification accounting over every step (the failing step is
		// the IDLE one after the exception).
		for _, step := range rec.Timeline.Steps {
			if m := step.Evidence.Mod; m != nil {
				modAttempts[m.Added.Channel]++
			}
			if step.Evidence.Kind == trace.CauseException && step.Evidence.PendingMod != nil {
				modFailures[step.Evidence.PendingMod.Added.Channel]++
			}
		}
		if rec.HasLoop() {
			// §5.3: every loop instance is centered on its problematic
			// cell; usage attributes the instance to that channel.
			if ch := problemChannelOfLoop(rec.Analysis.Loops[0]); ch != 0 {
				loopUse[ch]++
			}
			continue
		}
		// No-loop instances: share of all serving cells' channels.
		used := map[int]bool{}
		for _, step := range rec.Timeline.Steps {
			if step.Set.MCG == nil {
				continue
			}
			for _, ref := range step.Set.MCG.Cells() {
				used[ref.Channel] = true
			}
		}
		for ch := range used {
			noLoopUse[ch]++
		}
	}
	sum := func(m map[int]int) int {
		t := 0
		for _, v := range m {
			t += v
		}
		return t
	}
	loopTotal, noLoopTotal := sum(loopUse), sum(noLoopUse)
	r.addf("%-8s %10s %10s %14s", "channel", "no-loop", "loop", "mod fail ratio")
	for _, ch := range chans {
		attempts := modAttempts[ch]
		failRatio := 0.0
		if attempts > 0 {
			failRatio = float64(modFailures[ch]) / float64(attempts)
		}
		r.addf("%-8d %10s %10s %14s", ch,
			pct(stats.Ratio(noLoopUse[ch], noLoopTotal)),
			pct(stats.Ratio(loopUse[ch], loopTotal)),
			pct(failRatio))
		r.set("loop_use_"+strconv.Itoa(ch), stats.Ratio(loopUse[ch], loopTotal))
		r.set("noloop_use_"+strconv.Itoa(ch), stats.Ratio(noLoopUse[ch], noLoopTotal))
		r.set("mod_fail_"+strconv.Itoa(ch), failRatio)
		r.set("mod_attempts_"+strconv.Itoa(ch), float64(attempts))
	}
	return r
}

// problemChannelOfLoop returns the channel of the loop's problematic
// cell: the modification target for S1E3, the unmeasured SCell for
// S1E1, the poor SCell for S1E2.
func problemChannelOfLoop(l *core.Loop) int {
	steps := l.Timeline.Steps[l.Start : l.Start+l.CycleLen]
	for _, st := range steps {
		ev := st.Evidence
		switch {
		case ev.Kind == trace.CauseException && ev.PendingMod != nil:
			return ev.PendingMod.Added.Channel
		case len(ev.UnmeasuredSCells) > 0:
			return ev.UnmeasuredSCells[0].Channel
		case len(ev.PoorSCells) > 0:
			return ev.PoorSCells[0].Channel
		}
	}
	return 0
}

// Fig17 regenerates the 387410 coverage analysis: the 10th-percentile
// RSRP CDF across locations, per-area medians, and per-sub-type serving
// medians.
func Fig17(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig17", Title: "RSRP of cells on channel 387410"}
	rng := rand.New(rand.NewSource(c.Opts.Seed * 13))

	// (a) 10th-percentile sampled RSRP per location, per channel.
	chans := []int{387410, 398410, 501390, 521310}
	p10 := map[int][]float64{}
	for _, a := range st.Areas {
		if a.Spec.Operator != "OPT" {
			continue
		}
		for _, cl := range a.Dep.Clusters {
			for _, ch := range chans {
				for _, cc := range cl.CellsOnChannel(ch) {
					xs := make([]float64, 120)
					for i := range xs {
						xs[i] = a.Dep.Field.Sample(cc, cl.Loc, rng).RSRPDBm.Float()
					}
					p10[ch] = append(p10[ch], stats.Percentile(xs, 10))
				}
			}
		}
	}
	for _, ch := range chans {
		med := stats.Median(p10[ch])
		r.addf("(a) channel %-7d 10th-pct RSRP median across cells: %7.1f dBm", ch, med)
		r.set("p10_median_"+strconv.Itoa(ch), med)
	}

	// (b) median 387410 RSRP per area.
	for _, a := range st.Areas {
		if a.Spec.Operator != "OPT" {
			continue
		}
		var meds []float64
		for _, cl := range a.Dep.Clusters {
			for _, cc := range cl.CellsOnChannel(387410) {
				meds = append(meds, a.Dep.Field.Median(cc, cl.Loc).RSRPDBm.Float())
			}
		}
		r.addf("(b) %-4s median 387410 RSRP: %7.1f dBm", a.Spec.ID, stats.Median(meds))
		r.set("area_median_"+a.Spec.ID, stats.Median(meds))
	}

	// (c) serving 387410 median per loop sub-type vs no-loop runs.
	bySub := map[core.Subtype][]float64{}
	var noLoop []float64
	for _, a := range st.Areas {
		if a.Spec.Operator != "OPT" {
			continue
		}
		for _, rec := range a.Records {
			cl := a.Dep.Clusters[rec.LocIndex]
			partner := servingPartner(cl)
			if partner == nil {
				continue
			}
			m := a.Dep.Field.Median(partner, cl.Loc).RSRPDBm.Float()
			if rec.HasLoop() {
				bySub[rec.Subtype()] = append(bySub[rec.Subtype()], m)
			} else {
				noLoop = append(noLoop, m)
			}
		}
	}
	for _, sub := range []core.Subtype{core.S1E1, core.S1E2, core.S1E3} {
		if len(bySub[sub]) == 0 {
			continue
		}
		med := stats.Median(bySub[sub])
		r.addf("(c) %-5s serving 387410 median: %7.1f dBm (n=%d)", sub, med, len(bySub[sub]))
		r.set("serving_median_"+sub.String(), med)
	}
	r.addf("(c) no-loop serving 387410 median: %7.1f dBm (n=%d)", stats.Median(noLoop), len(noLoop))
	r.set("serving_median_noloop", stats.Median(noLoop))
	return r
}

// servingPartner returns the cluster's configured 387410 partner (the
// co-PCI cell of the main anchor).
func servingPartner(cl interface {
	CellsOnChannel(int) []*cell.Cell
}) *cell.Cell {
	pair := cl.CellsOnChannel(387410)
	anchors := cl.CellsOnChannel(521310)
	if len(pair) == 0 {
		return nil
	}
	if len(anchors) > 0 {
		for _, p := range pair {
			if p.PCI == anchors[0].PCI {
				return p
			}
		}
	}
	return pair[0]
}

// Fig18 regenerates the NSA channel-usage breakdown: the problematic 4G
// channels stand out in N2E1 instances, and the NR channels in N2E2.
func Fig18(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "fig18", Title: "Channel usage: loop vs no-loop (OPA/OPV)"}
	for _, op := range []string{"OPA", "OPV"} {
		lteLoop, lteNoLoop := map[int]int{}, map[int]int{}
		nrN2E2, nrNoLoop := map[int]int{}, map[int]int{}
		for _, rec := range st.Records(op) {
			usedLTE, usedNR := map[int]bool{}, map[int]bool{}
			for _, step := range rec.Timeline.Steps {
				if step.Set.MCG != nil && step.Set.MCG.RAT == band.RATLTE {
					usedLTE[step.Set.MCG.Primary.Channel] = true
				}
				if step.Set.SCG != nil {
					usedNR[step.Set.SCG.Primary.Channel] = true
				}
			}
			switch {
			case rec.HasLoop() && rec.Subtype() == core.N2E1:
				for ch := range usedLTE {
					lteLoop[ch]++
				}
			case rec.HasLoop() && rec.Subtype() == core.N2E2:
				for ch := range usedNR {
					nrN2E2[ch]++
				}
			case !rec.HasLoop():
				for ch := range usedLTE {
					lteNoLoop[ch]++
				}
				for ch := range usedNR {
					nrNoLoop[ch]++
				}
			}
		}
		problem := policy.ByName(op).ProblemChannel()
		sumInt := func(m map[int]int) int {
			t := 0
			for _, v := range m {
				t += v
			}
			return t
		}
		lt, lnt := sumInt(lteLoop), sumInt(lteNoLoop)
		r.addf("%s 4G channel %-6d share: N2E1 %s vs no-loop %s", op, problem,
			pct(stats.Ratio(lteLoop[problem], lt)), pct(stats.Ratio(lteNoLoop[problem], lnt)))
		r.set("n2e1_problem_share_"+op, stats.Ratio(lteLoop[problem], lt))
		r.set("noloop_problem_share_"+op, stats.Ratio(lteNoLoop[problem], lnt))
		nrAnchor := policy.ByName(op).NRChannels[0]
		r.addf("%s 5G channel %-6d share in N2E2: %s (n=%d)", op, nrAnchor,
			pct(stats.Ratio(nrN2E2[nrAnchor], sumInt(nrN2E2))), sumInt(nrN2E2))
	}
	return r
}
