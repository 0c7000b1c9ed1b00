package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("interpolated P50 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("P50 of empty input should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMeanStdDevMAD(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	// median is 4.5, so six of eight deviations are 0.5.
	if got := MAD(xs); got != 0.5 {
		t.Errorf("MAD = %v", got)
	}
	if got := MAD([]float64{1, 1, 2, 2, 4, 6, 9}); got != 1 {
		t.Errorf("MAD odd-count = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(MAD(nil)) {
		t.Error("empty inputs should give NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.Median != 50 {
		t.Errorf("Summary = %+v", s)
	}
	if !almost(s.P10, 10, 0.01) || !almost(s.P90, 90, 0.01) {
		t.Errorf("P10/P90 = %v/%v", s.P10, s.P90)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize = %+v", z)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if got := Spearman(xs, ys); !almost(got, 1, 1e-12) {
		t.Errorf("Spearman increasing = %v", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := Spearman(xs, rev); !almost(got, -1, 1e-12) {
		t.Errorf("Spearman decreasing = %v", got)
	}
}

func TestSpearmanMonotonicNonlinear(t *testing.T) {
	// Rank correlation must be 1 for any strictly monotone transform.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	if got := Spearman(xs, ys); !almost(got, 1, 1e-12) {
		t.Errorf("Spearman(exp) = %v", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties it should still be defined and in [-1, 1].
	xs := []float64{1, 1, 2, 2, 3}
	ys := []float64{2, 2, 4, 4, 9}
	got := Spearman(xs, ys)
	if math.IsNaN(got) || got < 0.9 {
		t.Errorf("Spearman with ties = %v", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if !math.IsNaN(Spearman([]float64{1}, []float64{2})) {
		t.Error("length-1 should be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1, 2}, []float64{3})) {
		t.Error("mismatched lengths should be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant side should be NaN")
	}
}

func TestMSEAndFractionWithin(t *testing.T) {
	pred := []float64{0.1, 0.5, 0.9}
	truth := []float64{0.0, 0.5, 0.5}
	wantMSE := (0.01 + 0 + 0.16) / 3
	if got := MSE(pred, truth); !almost(got, wantMSE, 1e-12) {
		t.Errorf("MSE = %v, want %v", got, wantMSE)
	}
	if got := FractionWithin(pred, truth, 0.25); !almost(got, 2.0/3, 1e-12) {
		t.Errorf("FractionWithin = %v", got)
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Error("empty MSE should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, -10, 100}
	h := Histogram(xs, 0, 5, 5)
	// bins: [0,1) [1,2) [2,3) [3,4) [4,5]; -10 clamps to 0, 100 clamps to last.
	want := []int{2, 1, 1, 1, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
	if got := Histogram(xs, 5, 5, 3); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("degenerate range histogram = %v", got)
	}
}

// Regression: Histogram(xs, lo, hi, n) with n <= 0 used to panic in
// make([]int, n); it must return an empty histogram instead.
func TestHistogramNonPositiveBins(t *testing.T) {
	for _, nbins := range []int{0, -1, -100} {
		if got := Histogram([]float64{1, 2, 3}, 0, 5, nbins); len(got) != 0 {
			t.Errorf("Histogram(nbins=%d) = %v, want empty", nbins, got)
		}
	}
}

// Regression: NaN samples used to clamp into bin 0 (NaN comparisons are
// all false, so the bin index stayed 0), silently inflating the lowest
// bin. NaNs must be skipped.
func TestHistogramSkipsNaN(t *testing.T) {
	xs := []float64{math.NaN(), 0.5, math.NaN(), 4.5}
	h := Histogram(xs, 0, 5, 5)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 2 {
		t.Fatalf("histogram counted %d samples, want 2 (NaNs skipped): %v", total, h)
	}
	if h[0] != 1 || h[4] != 1 {
		t.Errorf("histogram = %v, want one count in bin 0 and one in bin 4", h)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 0.25 {
		t.Error("Ratio(1,4)")
	}
	if Ratio(3, 0) != 0 {
		t.Error("Ratio(_,0) should be 0")
	}
}

// TestPercentileWithinRange property: any percentile lies within
// [min, max] of the sample.
func TestPercentileWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(p uint8) bool {
		xs := make([]float64, 1+int(p%30))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		v := Percentile(xs, float64(p%101))
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	lo, hi := BootstrapCI(xs, 0.95, 400, 7)
	if !(lo < 10 && 10 < hi) {
		t.Errorf("CI [%v, %v] should cover the true mean 10", lo, hi)
	}
	if hi-lo > 1.5 {
		t.Errorf("CI too wide for n=300: [%v, %v]", lo, hi)
	}
	// Determinism.
	lo2, hi2 := BootstrapCI(xs, 0.95, 400, 7)
	if lo != lo2 || hi != hi2 {
		t.Error("bootstrap must be deterministic in the seed")
	}
	if l, h := BootstrapCI(nil, 0.95, 100, 1); !math.IsNaN(l) || !math.IsNaN(h) {
		t.Error("empty input should give NaN")
	}
}

// Regression: an out-of-range confidence used to silently produce a
// nonsense interval (confidence=0 collapses both percentiles to 50,
// confidence>=1 pushes them past the tails). The valid domain is the
// open interval (0, 1); anything else yields (NaN, NaN).
func TestBootstrapCIConfidenceValidation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, conf := range []float64{0, 1, -0.5, 1.5, 2, math.NaN()} {
		lo, hi := BootstrapCI(xs, conf, 100, 3)
		if !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("BootstrapCI(confidence=%v) = (%v, %v), want (NaN, NaN)", conf, lo, hi)
		}
	}
	// The boundary just inside the domain still works.
	if lo, hi := BootstrapCI(xs, 0.5, 100, 3); math.IsNaN(lo) || math.IsNaN(hi) {
		t.Errorf("BootstrapCI(confidence=0.5) = (%v, %v), want a finite interval", lo, hi)
	}
}
