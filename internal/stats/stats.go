// Package stats implements the small statistical toolkit the
// measurement analysis needs: order statistics, five-number ("violin")
// summaries, Spearman rank correlation, and mean squared error.
// Everything is stdlib-only and allocation-conscious so the benchmark
// harness can run it over tens of thousands of samples.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It returns NaN for an
// empty input. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is Percentile over an already-sorted slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean of xs, or NaN for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MAD returns the median absolute deviation around the median, the
// robust spread the paper quotes as "median ± deviation" in Table 2.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Summary is a compact distribution description used to print the
// paper's violin plots as table rows.
type Summary struct {
	N      int
	Min    float64
	P10    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of xs. A zero-value Summary is returned
// for an empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		P10:    percentileSorted(s, 10),
		P25:    percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P90:    percentileSorted(s, 90),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
	}
}

// Spearman returns the Spearman rank correlation coefficient between xs
// and ys, which the paper uses to relate RSRP gaps and loop probability
// (Fig. 21: −0.65 and +0.66). It returns NaN when the inputs differ in
// length, are shorter than 2, or either side is constant.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	rx := ranks(xs)
	ry := ranks(ys)
	return pearson(rx, ry)
}

// ranks returns fractional ranks (average rank for ties), 1-based.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:ignore loopvet/floatcmp rank ties are exact duplicates by construction; epsilon-merging distinct values would corrupt Spearman ranks
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i) + float64(j)) / 2.0
		for k := i; k <= j; k++ {
			r[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return r
}

// pearson returns the Pearson correlation of xs and ys.
func pearson(xs, ys []float64) float64 {
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	//lint:ignore loopvet/floatcmp guards the exact IEEE zero that would yield 0/0 in the division below; an epsilon would misreport near-constant series
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MSE returns the mean squared error between predictions and truth. It
// returns NaN when the lengths differ or the inputs are empty.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var ss float64
	for i := range pred {
		d := pred[i] - truth[i]
		ss += d * d
	}
	return ss / float64(len(pred))
}

// FractionWithin returns the fraction of |pred−truth| ≤ bound, the
// metric behind the paper's "within ±25 % error bounds" statements
// (Fig. 22).
func FractionWithin(pred, truth []float64, bound float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range pred {
		if math.Abs(pred[i]-truth[i]) <= bound {
			n++
		}
	}
	return float64(n) / float64(len(pred))
}

// Histogram counts xs into nbins equal-width bins spanning [min, max].
// Values outside the range are clamped into the edge bins; NaN samples
// belong to no bin and are skipped. A non-positive nbins yields empty
// counts (a negative count can't size a slice).
func Histogram(xs []float64, min, max float64, nbins int) []int {
	if nbins <= 0 {
		return []int{}
	}
	counts := make([]int, nbins)
	if max <= min {
		return counts
	}
	w := (max - min) / float64(nbins)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		b := int((x - min) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// Ratio returns part/total as a fraction, or 0 when total is 0. It keeps
// percentage bookkeeping in the experiment code terse.
func Ratio(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// BootstrapCI returns a percentile bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using
// resamples deterministic in the seed. It returns (NaN, NaN) for an
// empty input or a confidence outside (0, 1) — levels at or beyond the
// bounds would silently produce inverted or degenerate intervals.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed int64) (lo, hi float64) {
	if len(xs) == 0 || resamples <= 0 ||
		math.IsNaN(confidence) || confidence <= 0 || confidence >= 1 {
		return math.NaN(), math.NaN()
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	alpha := (1 - confidence) / 2
	return Percentile(means, 100*alpha), Percentile(means, 100*(1-alpha))
}
