package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // even the median has fewer than ten beyond it
		{20, 50},   // exactly ten beyond the median
		{39, 50},   // p75 would leave 9.75
		{40, 75},   // p75 leaves exactly ten
		{100, 90},  // p95 would leave 5
		{999, 95},  // p99 would leave 9.99
		{1000, 99}, // p99 leaves exactly ten
		{9999, 99}, // p99.9 would leave 9.999
		{38000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestParseStolenIsPerCPU(t *testing.T) {
	stat := "cpu  2184375 48 113592 611582 2269 0 2758 800 0 0\n" +
		"cpu0 1092187 24 56796 305791 1134 0 1379 400 0 0\n" +
		"cpu1 1092188 24 56796 305791 1135 0 1379 400 0 0\n" +
		"intr 1 2 3\nctxt 42\n"
	got, err := parseStolen(stat)
	if err != nil {
		t.Fatal(err)
	}
	// 800 ticks of 10 ms over 2 CPUs
	if want := 4 * time.Second; got != want {
		t.Errorf("parseStolen = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "intr 1 2\n", "cpu  1 2 3 4\ncpu0 1 2 3 4\n", "cpu  1 2 3 4 5 6 7 x\ncpu0 1\n"} {
		if _, err := parseStolen(bad); err == nil {
			t.Errorf("parseStolen(%q) succeeded", bad)
		}
	}
}

func TestSlowdownIsMedianOverReference(t *testing.T) {
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown of no calibrations = %g, want 1", got)
	}
	cs := []calibration{{cpu: calibRefCPU}, {cpu: 3 * calibRefCPU}, {cpu: 2 * calibRefCPU}}
	if got := slowdown(cs); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown = %g, want the median 2", got)
	}
}

func TestQuantileMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("high quantile of a small sample = %g, want the maximum 3", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}
