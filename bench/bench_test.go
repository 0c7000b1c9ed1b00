package main

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// lastLine decodes the JSON result on the last line of a run's output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func names(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range cfg.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, workloadNames)
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at smoke size, once
// untraced and once traced, and checks that each prints exactly the
// metrics BENCHMARK.json declares, with their units, and that every
// output matched its reference.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		for trace, want := range map[string][]metricSpec{"0": cfg.EndToEnd, "1": cfg.PerLayer} {
			var out, errb bytes.Buffer
			start := time.Now()
			code := run([]string{"-workload", w, "-smoke", "-trace", trace}, &out, &errb)
			elapsed := time.Since(start)
			if code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s", w, trace, code, errb.String())
			}
			if elapsed > 15*time.Second && !raceEnabled {
				t.Errorf("%s -trace %s: smoke run took %v, want under 15s", w, trace, elapsed)
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v failed=%d attempted=%d", w, trace, r.Correct, r.Failed, r.Attempted)
			}
			var got []string
			for name, m := range r.Metrics {
				got = append(got, name)
				for _, spec := range want {
					if spec.Name == name && spec.Unit != m.Unit {
						t.Errorf("%s -trace %s: %s in %q, BENCHMARK.json says %q", w, trace, name, m.Unit, spec.Unit)
					}
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, names(want)) {
				t.Errorf("%s -trace %s: metrics %v, BENCHMARK.json declares %v", w, trace, got, names(want))
			}
		}
	}
}

// mismatched is the ingest workload with one reference answer wrong.
type mismatched struct{ *ingestWorkload }

func (m mismatched) reference(ctx context.Context) error {
	if err := m.ingestWorkload.reference(ctx); err != nil {
		return err
	}
	m.expected[0] += "not-a-loop;"
	return nil
}

func TestSeededMismatchFailsTheRun(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	cfg := smokeSize
	cfg.seed = 42
	w := mismatched{&ingestWorkload{cfg: cfg}}
	var out, errb bytes.Buffer
	rc := runConfig{workload: "ingest", seed: 42, smoke: true, size: cfg}
	if code := execute(context.Background(), w, rc, &out, &errb); code == 0 {
		t.Fatalf("a mismatched capture exited 0\n%s", errb.String())
	}
	r := lastLine(t, out.String())
	if r.Correct || r.Failed == 0 || float64(r.Failed)/float64(r.Attempted) <= 0 {
		t.Errorf("mismatch not counted: correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
