// Package throughput models the bulk-download data rate of a run from
// its serving-cell-set timeline, reproducing the performance side of
// the study (Fig. 1b, Fig. 11): fast when 5G is ON (scaled by the
// aggregate NR channel width), a 4G floor for the NSA operators when 5G
// is OFF, and zero while IDLE — which is why OPT's loops suspend data
// service entirely (F4).
package throughput

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/trace"
)

// Sample is one download-speed observation.
type Sample struct {
	At   time.Duration
	Mbps float64
}

// refWidthMHz normalizes the width scaling: an OPT 12R bundle
// aggregates about 210 MHz.
const refWidthMHz = 210.0

// rampSeconds is how long TCP takes to refill the pipe after an
// OFF→ON transition.
const rampSeconds = 2

// Generate produces one speed sample per second over the timeline,
// drawing its variation from rng. The same timeline and the same rng
// stream always produce the same series; its samples ascend in At.
func Generate(tl *trace.Timeline, op *policy.Operator, rng *rand.Rand) []Sample {
	n := int(tl.Duration / time.Second)
	out := make([]Sample, 0, n)
	stepIdx := -1
	onMedian := 0.0 // the 5G-ON median of the step in force
	onStreak := 0
	for s := 0; s < n; s++ {
		at := time.Duration(s) * time.Second
		i := max(stepIdx, 0)
		for i+1 < len(tl.Steps) && tl.Steps[i+1].At <= at {
			i++
		}
		set := tl.Steps[i].Set
		if i != stepIdx {
			stepIdx, onMedian = i, onMedianMbps(set, op)
		}
		mbps := 0.0
		switch {
		case set.Uses5G():
			onStreak++
			mbps = lognorm(onMedian, 0.25, rng)
			if onStreak <= rampSeconds {
				mbps *= 0.3 + 0.35*float64(onStreak)
			}
		case set.IsIdle():
			onStreak = 0
			mbps = 0
		default: // 4G only
			onStreak = 0
			mbps = lognorm(op.MedianOffMbps, 0.30, rng)
		}
		out = append(out, Sample{At: at, Mbps: mbps})
	}
	return out
}

// onMedianMbps is the median 5G-ON speed over set: the operator median
// scaled sublinearly by the aggregate NR width in use (carrier
// aggregation helps, with diminishing returns). Generate draws each
// second's lognormal run-to-run variation around it.
func onMedianMbps(set cell.Set, op *policy.Operator) float64 {
	width := aggregateNRWidth(set)
	if op.Mode == policy.ModeNSA {
		// NSA anchors carry signaling on 4G; the NR leg dominates the
		// rate, already captured by the operator median.
		return op.MedianOnMbps * math.Pow(width/60.0, 0.4)
	}
	return op.MedianOnMbps * math.Pow(width/refWidthMHz, 0.6)
}

// aggregateNRWidth sums the channel widths of all serving NR cells,
// primary then SCells, MCG then SCG.
func aggregateNRWidth(set cell.Set) float64 {
	var sum float64
	for _, g := range [...]*cell.Group{set.MCG, set.SCG} {
		if g == nil || g.RAT != band.RATNR {
			continue
		}
		sum += band.DefaultWidthMHz(band.RATNR, g.Primary.Channel)
		for _, ref := range g.SCells {
			sum += band.DefaultWidthMHz(band.RATNR, ref.Channel)
		}
	}
	if sum <= 0 {
		sum = 20 // no aggregated carriers: assume one 20 MHz LTE channel
	}
	return sum
}

// lognorm draws a lognormal value with the given median and log-σ.
func lognorm(median, sigma float64, rng *rand.Rand) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// CycleSpeed is the per-cycle speed summary of Fig. 11: the median
// download speed during the ON and OFF portions of one loop cycle.
type CycleSpeed struct {
	OnMedian  float64
	OffMedian float64
}

// Loss returns the speed lost when 5G turns off.
func (c CycleSpeed) Loss() float64 { return c.OnMedian - c.OffMedian }

// CycleSpeeds computes per-cycle ON/OFF medians over a timeline given
// the cycle boundaries (start, onDur, total). The samples must ascend
// in At, as Generate's do: each cycle's are found by binary search.
// Cycles without samples in a window are skipped.
func CycleSpeeds(samples []Sample, tl *trace.Timeline, cycles []Cycle) []CycleSpeed {
	var out []CycleSpeed
	var on, off []float64
	for _, c := range cycles {
		lo := sort.Search(len(samples), func(i int) bool { return samples[i].At >= c.Start })
		hi := lo + sort.Search(len(samples)-lo, func(i int) bool { return samples[lo+i].At >= c.Start+c.Total })
		on, off = on[:0], off[:0]
		for _, s := range samples[lo:hi] {
			// Attribute the sample by the 5G state at its time.
			if in5G(tl, s.At) {
				on = append(on, s.Mbps)
			} else {
				off = append(off, s.Mbps)
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		out = append(out, CycleSpeed{
			OnMedian:  stats.Median(on),
			OffMedian: stats.Median(off),
		})
	}
	return out
}

// Cycle is a loop cycle window.
type Cycle struct {
	Start time.Duration
	Total time.Duration
}

// in5G reports the 5G state at an instant: the step in force at `at` is
// the last one starting at or before it. Timeline steps are in
// ascending At order (FromLog re-anchors regressing clocks), so a
// binary search replaces the former full rescan — CycleSpeeds calls
// this once per sample per cycle, which made it
// O(samples × steps × cycles).
func in5G(tl *trace.Timeline, at time.Duration) bool {
	steps := tl.Steps
	i := sort.Search(len(steps), func(j int) bool { return steps[j].At > at }) - 1
	if i < 0 {
		return false // before the first step: no serving set yet
	}
	return steps[i].Set.Uses5G()
}
