package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics at rank (n+1)·p, clamped to
// the sample range. For three or more values its quartiles are those of
// Python's statistics.quantiles(xs, n=4), so spreads printed here match
// the ones a reader computes from the same values. An empty sample
// yields 0, which JSON can carry and NaN cannot.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	h := float64(n+1) * p
	if h <= 1 {
		return s[0]
	}
	if h >= float64(n) {
		return s[n-1]
	}
	lo := int(h)
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCandidates are the percentiles tailPercentile chooses from,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves
// at least ten of n samples above it, so a reported tail is never set
// by a handful of outliers. It returns 50 when even the median has
// fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// summary is a sample's median, quartiles and size.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces a sample to its summary.
func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// usage is a snapshot of the process's resource counters; the
// difference of two snapshots is what the code between them cost.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user+sys of every thread (getrusage)
	stolen   time.Duration // time the host ran something else, per guest CPU
	rss      float64       // resident set size in bytes
	allocs   float64       // cumulative heap bytes allocated
	gcCycles float64       // completed GC cycles
	gcCPU    float64       // estimated GC CPU seconds
	totalCPU float64       // estimated total CPU seconds available to Go
}

// runtimeMetrics are the runtime/metrics names read into a usage, in
// the order readUsage assigns them.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readUsage snapshots wall clock, rusage CPU, the resident set and the
// runtime's heap and GC counters.
func readUsage() (usage, error) {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u := usage{wall: time.Now(), cpu: cpuTime()}
	stolen, err := stolenTime()
	if err != nil {
		return u, err
	}
	rss, err := residentBytes()
	if err != nil {
		return u, err
	}
	u.stolen, u.rss = stolen, rss
	vals := []*float64{&u.allocs, &u.gcCycles, &u.gcCPU, &u.totalCPU}
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			*vals[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			*vals[i] = s.Value.Float64()
		}
	}
	return u, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is the guest's steal time so far, per CPU: how long the
// hypervisor kept a virtual CPU from running, summed over the CPUs of
// /proc/stat and divided by their number. A closed loop with a worker
// per CPU loses about that much of its wall time.
func stolenTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, fmt.Errorf("reading the steal time: %w", err)
	}
	return parseStolen(string(b))
}

// clockTicks is the unit of /proc/stat's times, USER_HZ, which Linux
// fixes at 100 per second.
const clockTicks = 100

// parseStolen reads the steal time from /proc/stat's text: the eighth
// number of the "cpu" line, divided by the number of "cpuN" lines.
func parseStolen(stat string) (time.Duration, error) {
	var ticks float64
	cpus, found := 0, false
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] != "cpu":
			cpus++
		case len(f) < 9:
			return 0, fmt.Errorf("/proc/stat has no steal time: %q", line)
		default:
			t, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected /proc/stat line %q: %w", line, err)
			}
			ticks, found = t, true
		}
	}
	if !found || cpus == 0 {
		return 0, fmt.Errorf("/proc/stat has no cpu lines")
	}
	return time.Duration(ticks / clockTicks / float64(cpus) * float64(time.Second)), nil
}

// residentBytes is the process's current resident set size, from the
// second field of /proc/self/statm (in pages).
func residentBytes() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading the resident set size: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("unexpected /proc/self/statm %q: %w", b, err)
	}
	return pages * float64(os.Getpagesize()), nil
}
