package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// showcaseRun executes the paper's motivating 420-second run at the
// P16-analog location, once per Context: fig1b and fig3 both render it.
func (c *Context) showcaseRun() *campaign.Record {
	c.showcaseOnce.Do(func() {
		dep, cl := c.showcaseSite()
		c.showcase = c.run("showcase", []campaign.Job{{Config: uesim.Config{
			Op: policy.OPT(), Field: dep.Field, Cluster: cl,
			Duration: 420 * time.Second, Seed: c.Opts.Seed*31 + 5,
		}}})[0]
	})
	return c.showcase
}

// Fig1b regenerates the motivating example: the download-speed timeline
// of one persistent S1E3 loop (≈200+ Mbps when ON, 0 when OFF,
// repeating every few tens of seconds).
func Fig1b(c *Context) *Result {
	rec := c.showcaseRun()
	speeds := throughput.Generate(rec.Timeline, policy.OPT(), newRunRNG(c.Opts.Seed*31+6))
	r := &Result{ID: "fig1b", Title: "Download speed over one looping run (P16 analog)"}

	var on, off []float64
	offDips := 0
	prevOff := false
	for _, s := range speeds {
		isOff := s.Mbps < 1
		if isOff {
			off = append(off, s.Mbps)
			if !prevOff {
				offDips++
			}
		} else {
			on = append(on, s.Mbps)
		}
		prevOff = isOff
	}
	r.addf("run: 420s bulk download, OPT (5G SA), OnePlus 12R")
	r.addf("speed when 5G ON : median %.1f Mbps (n=%d)", stats.Median(on), len(on))
	r.addf("speed when 5G OFF: median %.1f Mbps (n=%d)", stats.Median(off), len(off))
	r.addf("OFF dips observed: %d (paper: ~11 in 420 s)", offDips)
	// Sparkline-style series, 30 s buckets.
	for t := 0; t+30 <= len(speeds); t += 30 {
		var sum float64
		for _, s := range speeds[t : t+30] {
			sum += s.Mbps
		}
		r.addf("t=%3ds..%3ds avg %6.1f Mbps", t, t+30, sum/30)
	}
	loops := 0.0
	if rec.HasLoop() {
		loops = 1
	}
	r.set("on_median_mbps", stats.Median(on))
	r.set("off_median_mbps", stats.Median(off))
	r.set("off_dips", float64(offDips))
	r.set("loop_detected", loops)
	return r
}

// Table2 regenerates the showcase cell inventory: the main 5G cells at
// the P16 analog with their bands, widths and median±MAD RSRP from
// extensive sampling.
func Table2(c *Context) *Result {
	dep, cl := c.showcaseSite()
	r := &Result{ID: "table2", Title: "5G cells at the showcase location"}
	r.addf("%-14s %-5s %-9s %-7s %s", "Cell", "Band", "Ch.Freq", "Width", "RSRP (median±MAD)")
	rng := newRunRNG(c.Opts.Seed * 17)
	for _, cc := range cl.Cells {
		if cc.RAT != band.RATNR {
			continue
		}
		// >500 samples per cell, as in the paper.
		xs := make([]float64, 600)
		for i := range xs {
			xs[i] = dep.Field.Sample(cc, cl.Loc, rng).RSRPDBm.Float()
		}
		med, mad := stats.Median(xs), stats.MAD(xs)
		r.addf("%-14s %-5s %6.0f MHz %4.0f MHz %7.1f ± %.1f dBm",
			cc.Ref, cc.Band(), cc.FreqMHz(), cc.WidthMHz(), med, mad)
		r.set("rsrp_"+cc.Ref.String(), med)
	}
	// Key shape: the two n41 anchors are wide and strong; the 387410
	// pair shares a narrow channel.
	pair := cl.CellsOnChannel(387410)
	if len(pair) == 2 {
		g := dep.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
		if g < 0 {
			g = -g
		}
		r.set("pair_gap_db", g)
	}
	r.set("nr_cells", float64(len(cl.CellsOnChannel(387410))+len(cl.CellsOnChannel(398410))+
		len(cl.CellsOnChannel(521310))+len(cl.CellsOnChannel(501390))+len(cl.CellsOnChannel(126270))))
	return r
}

// Fig3 regenerates the RRC-procedure walkthrough of the first ON-OFF
// cycles: establishment, SCell addition, the failing intra-channel
// SCell modification, and re-establishment.
func Fig3(c *Context) *Result {
	rec := c.showcaseRun()
	r := &Result{ID: "fig3", Title: "Serving cell set transitions (first cycles)"}
	count := 0
	mods := 0
	for i, s := range rec.Timeline.Steps {
		if i > 14 {
			break
		}
		desc := s.Set.String()
		cause := ""
		if s.Evidence.Kind != trace.CauseNone {
			cause = " ← " + s.Evidence.Kind.String()
			if s.Evidence.PendingMod != nil {
				cause += fmt.Sprintf(" (SCell mod %s → %s)",
					s.Evidence.PendingMod.Released, s.Evidence.PendingMod.Added)
				mods++
			}
		}
		r.addf("t=%7s  %s%s", durS(s.At), desc, cause)
		count++
	}
	if loop, sub := rec.Analysis.Primary(); loop != nil {
		r.addf("loop: cycle of %d sets, %d repetitions, %v, classified %v",
			loop.CycleLen, loop.Reps, loop.Form, sub)
		r.set("cycle_len", float64(loop.CycleLen))
		r.set("reps", float64(loop.Reps))
		if sub == core.S1E3 {
			r.set("is_s1e3", 1)
		}
	}
	r.set("mod_failures_shown", float64(mods))
	return r
}

// Table3 regenerates the dataset statistics per operator.
func Table3(c *Context) *Result {
	st := c.Study()
	r := &Result{ID: "table3", Title: "Dataset statistics"}
	r.addf("%-18s %8s %8s %8s", "Metric", "OPT", "OPA", "OPV")
	type row struct {
		name string
		vals [3]float64
		fmt  string
	}
	ops := []string{"OPT", "OPA", "OPV"}
	var rows []row
	get := func(f func(op string) float64) [3]float64 {
		var v [3]float64
		for i, op := range ops {
			v[i] = f(op)
		}
		return v
	}
	rows = append(rows, row{"areas", get(func(op string) float64 {
		n := 0.0
		for _, a := range st.Areas {
			if a.Spec.Operator == op {
				n++
			}
		}
		return n
	}), "%8.0f"})
	rows = append(rows, row{"area km2", get(func(op string) float64 {
		s := 0.0
		for _, a := range st.Areas {
			if a.Spec.Operator == op {
				s += a.Spec.SizeKm2
			}
		}
		return s
	}), "%8.1f"})
	rows = append(rows, row{"locations", get(func(op string) float64 {
		n := 0.0
		for _, a := range st.Areas {
			if a.Spec.Operator == op {
				n += float64(len(a.Dep.Clusters))
			}
		}
		return n
	}), "%8.0f"})
	rows = append(rows, row{"total minutes", get(func(op string) float64 {
		return float64(len(st.Records(op))) * st.Opts.Duration.Minutes()
	}), "%8.0f"})
	rows = append(rows, row{"5G cells", get(func(op string) float64 {
		return float64(cellCount(st, op, band.RATNR))
	}), "%8.0f"})
	rows = append(rows, row{"4G cells", get(func(op string) float64 {
		return float64(cellCount(st, op, band.RATLTE))
	}), "%8.0f"})
	rows = append(rows, row{"RSRP/RSRQ meas", get(func(op string) float64 {
		n := 0
		for _, rec := range st.Records(op) {
			n += rec.MeasCount
		}
		return float64(n)
	}), "%8.0f"})
	rows = append(rows, row{"CS samples", get(func(op string) float64 {
		n := 0
		for _, rec := range st.Records(op) {
			n += len(rec.Timeline.Steps)
		}
		return float64(n)
	}), "%8.0f"})
	rows = append(rows, row{"unique CS", get(func(op string) float64 {
		seen := map[string]bool{}
		for _, rec := range st.Records(op) {
			for _, s := range rec.Timeline.Steps {
				seen[s.Set.Key()] = true
			}
		}
		return float64(len(seen))
	}), "%8.0f"})
	rows = append(rows, row{"ON-OFF loops", get(func(op string) float64 {
		return float64(len(campaign.LoopInstances(st.Records(op))))
	}), "%8.0f"})
	rows = append(rows, row{"unique loops", get(func(op string) float64 {
		seen := map[string]bool{}
		for _, rec := range st.Records(op) {
			for _, l := range rec.Analysis.Loops {
				seen[rec.Area+"/"+l.Fingerprint()] = true
			}
		}
		return float64(len(seen))
	}), "%8.0f"})
	for _, rw := range rows {
		r.addf("%-18s "+rw.fmt+" "+rw.fmt+" "+rw.fmt, rw.name, rw.vals[0], rw.vals[1], rw.vals[2])
		for i, op := range ops {
			r.set(rw.name+"_"+op, rw.vals[i])
		}
	}
	return r
}

// cellCount counts distinct deployed cells of one RAT for an operator.
func cellCount(st *campaign.Study, op string, rat band.RAT) int {
	seen := map[string]bool{}
	for _, a := range st.Areas {
		if a.Spec.Operator != op {
			continue
		}
		for _, cl := range a.Dep.Clusters {
			for _, cc := range cl.Cells {
				if cc.RAT == rat {
					seen[a.Spec.ID+"/"+cc.Ref.String()] = true
				}
			}
		}
	}
	return len(seen)
}

// newRunRNG builds a deterministic sampling source for generators.
func newRunRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
