package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchConfig is the part of BENCHMARK.json the benchmark reads.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec declares one metric: its unit, which direction is better
// and, for end-to-end metrics, the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadConfig reads BENCHMARK.json from path, or when path is empty
// from the working directory or its parent (the repository root when
// run from bench/).
func loadConfig(path string) (*benchConfig, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var err error
	for _, p := range paths {
		var b []byte
		if b, err = os.ReadFile(p); err == nil {
			var cfg benchConfig
			if err := json.Unmarshal(b, &cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			return &cfg, nil
		}
	}
	return nil, err
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs an improvement needs.
const minPairs = 10

// judge compares the per-run values of one metric on one workload.
//
//   - The spread is the distance between the parent's quartiles as a
//     share of its median. Wider than the bound, the metric is
//     unresolved, unless every change run reads better than every
//     parent run.
//   - A change median worse than the parent's by more than the bound is
//     a regression.
//   - An improvement needs at least ten pairs (i-th parent run against
//     i-th change run), the change winning at least nine tenths of
//     them with ties counting for neither, and medians further apart
//     than the spread.
//   - Anything else is unchanged.
func judge(parent, change []float64, better string, bound float64) string {
	lower := better == "lower"
	isBetter := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	pm, cm := median(parent), median(change)
	spread := math.Abs(ratio(quantile(parent, 0.75)-quantile(parent, 0.25), pm))
	worse := ratio(cm-pm, math.Abs(pm))
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && isBetter(c, p)
		}
	}
	if spread > bound {
		if allBetter {
			return improved
		}
		return unresolved
	}
	if worse > bound {
		return regressed
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if isBetter(change[i], parent[i]) {
			wins++
		}
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && -worse > spread {
		return improved
	}
	return unchanged
}

// readReports reads the end-to-end reports of an -out file.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric's per-run values on one workload.
func values(reps []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints one row per workload and end-to-end metric and the
// verdict on every claim. It exits 1 when a metric regressed or a
// claim was not met.
func runCompare(cfgPath, parentPath, changePath, claims string, stdout, stderr io.Writer) int {
	cfg, err := loadConfig(cfgPath)
	if err == nil && len(cfg.EndToEnd) == 0 {
		err = errors.New("BENCHMARK.json declares no end-to-end metrics")
	}
	var parent, change []report
	if err == nil {
		parent, err = readReports(parentPath)
	}
	if err == nil {
		change, err = readReports(changePath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	verdicts := map[string]string{}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-16s %-6s %30s %30s %8s  %s\n", "workload", "metric", "unit",
		"parent median [q1 q3] n", "change median [q1 q3] n", "change", "verdict")
	for _, wl := range cfg.Workloads {
		for _, m := range cfg.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(p, c, m.Better, m.Bound)
			verdicts[wl.Name+":"+m.Name] = v
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-16s %-6s %30s %30s %+7.1f%%  %s\n", wl.Name, m.Name, m.Unit,
				describe(p), describe(c), 100*ratio(median(c)-median(p), median(p)), v)
		}
	}
	for _, cl := range strings.Split(claims, ",") {
		if cl = strings.TrimSpace(cl); cl == "" {
			continue
		}
		v, ok := verdicts[cl]
		met := ok && v == improved
		if !met {
			code = 1
		}
		fmt.Fprintf(stdout, "claim %s: %s (verdict %q)\n", cl, map[bool]string{true: "met", false: "not met"}[met], v)
	}
	return code
}

// describe renders a sample as "median [q1 q3] n".
func describe(xs []float64) string {
	s := summarize(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
