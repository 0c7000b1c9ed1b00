package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns n values around v with a small alternating jitter.
func runs(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v * (1 + 0.002*float64(i%3-1))
	}
	return out
}

func TestJudge(t *testing.T) {
	noisy := []float64{70, 80, 90, 100, 110, 120, 130, 100, 100, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"faster throughput", runs(10, 100), runs(10, 120), "higher", 0.1, improved},
		{"lower latency", runs(10, 10), runs(10, 8), "lower", 0.1, improved},
		{"slower beyond the bound", runs(10, 100), runs(10, 85), "higher", 0.1, regressed},
		{"more cpu beyond the bound", runs(10, 10), runs(10, 11.5), "lower", 0.1, regressed},
		{"worse within the bound", runs(10, 100), runs(10, 95), "higher", 0.1, unchanged},
		{"identical", runs(10, 100), runs(10, 100), "higher", 0.1, unchanged},
		{"better but fewer than ten pairs", runs(5, 100), runs(5, 120), "higher", 0.1, unchanged},
		{"spread wider than the bound", noisy, runs(10, 105), "higher", 0.1, unresolved},
		{"spread wider than the bound, regression hidden", noisy, runs(10, 80), "higher", 0.1, unresolved},
		{"spread wider, but every change run better", noisy, runs(10, 140), "higher", 0.1, improved},
	} {
		if got := judge(tc.parent, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeNeedsNineOfTenPairs(t *testing.T) {
	parent := runs(10, 100)
	change := runs(10, 120)
	change[0], change[1] = 99, 99 // two of ten pairs lost
	if got := judge(parent, change, "higher", 0.1); got != unchanged {
		t.Errorf("8/10 pairs won: judge = %s, want %s", got, unchanged)
	}
	change[1] = 120 // nine of ten
	if got := judge(parent, change, "higher", 0.1); got != improved {
		t.Errorf("9/10 pairs won: judge = %s, want %s", got, improved)
	}
}

func writeReports(t *testing.T, path, workload string, vals []float64) {
	t.Helper()
	for i, v := range vals {
		rep := report{Workload: workload, Seed: int64(i), Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"ops_per_s": {Value: v, Unit: "op/s"}}}}
		if err := appendJSONLine(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	// A traced report is ignored by the comparison.
	if err := appendJSONLine(path, report{Workload: workload, Traced: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompareRowsAndClaims(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "BENCHMARK.json")
	b, _ := json.Marshal(map[string]any{
		"workloads":  []map[string]string{{"name": "study", "why": "x"}, {"name": "ingest", "why": "y"}},
		"end_to_end": []metricSpec{{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.1}},
	})
	if err := os.WriteFile(cfg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	parent, change := filepath.Join(dir, "parent.jsonl"), filepath.Join(dir, "change.jsonl")
	writeReports(t, parent, "study", runs(10, 100))
	writeReports(t, change, "study", runs(10, 130))
	writeReports(t, parent, "ingest", runs(10, 100))
	writeReports(t, change, "ingest", runs(10, 100))

	var out, errb bytes.Buffer
	if code := runCompare(cfg, parent, change, "study:ops_per_s", &out, &errb); code != 0 {
		t.Fatalf("met claim: exit %d, stderr %s\n%s", code, errb.String(), out.String())
	}
	for _, want := range []string{"study    ops_per_s", "improved", "ingest   ops_per_s", "unchanged", "claim study:ops_per_s: met"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := runCompare(cfg, parent, change, "ingest:ops_per_s", &out, &errb); code != 1 {
		t.Errorf("unmet claim: exit %d, want 1\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(cfg, change, parent, "", &out, &errb); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regression: exit %d, want 1\n%s", code, out.String())
	}
}
