package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope"
)

// Regenerate the experiment-output goldens with:
//
//	go test ./cmd/campaign -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// goldenArgs pins the reduced-scale study every golden is captured at.
// Experiment output is deterministic in (seed, scale, duration), so any
// drift in these bytes is an intentional analysis change or a bug.
var goldenArgs = []string{"-seed", "42", "-scale", "0.05", "-duration", "40s"}

// TestExperimentGoldens locks the CLI output of experiments end-to-end:
// study execution, aggregation and rendering. "all" is every experiment
// in presentation order, the byte wall for every figure that reads a
// loop's cycles; its output is the same at any worker count.
func TestExperimentGoldens(t *testing.T) {
	for _, c := range []struct {
		name, exp string
		extra     []string
	}{
		{"table3", "table3", nil},
		{"fig6", "fig6", nil},
		{"all", "all", nil},
		{"all-workers1", "all", []string{"-workers", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(append(append([]string{}, goldenArgs...), "-exp", c.exp), c.extra...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", c.exp+".golden")
			if *update && c.extra == nil {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, stdout.String(), want)
			}
		})
	}
}

func TestListExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"table3", "fig6", "table5"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, stdout.String())
		}
	}
}

// TestUnknownExperiment: an unknown ID, alone or in a list, is a usage
// error naming that ID whenever the experiments render, on stdout or
// into a -report, and nothing runs.
func TestUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "r.md")
	for _, exp := range []string{"nope", "fig6,nope,table3"} {
		for _, extra := range [][]string{nil, {"-report", report}, {"-report", report, "-export", dir}} {
			var stdout, stderr bytes.Buffer
			args := append(append(append([]string{}, goldenArgs...), "-exp", exp), extra...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("-exp %s %v: exit = %d, want 2", exp, extra, code)
			}
			if !strings.Contains(stderr.String(), `unknown experiment "nope"`) || stdout.Len() != 0 {
				t.Errorf("-exp %s %v: stdout %q, stderr %q; want only the unknown ID named",
					exp, extra, stdout.String(), stderr.String())
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a usage error wrote files: %v %v", entries, err)
	}
}

// TestExperimentList: a comma-separated -exp runs each experiment in
// the order given, over one study, printing what the runs one ID at a
// time print.
func TestExperimentList(t *testing.T) {
	var want []byte
	for _, exp := range []string{"table3", "fig6"} {
		golden, err := os.ReadFile(filepath.Join("testdata", exp+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, golden...)
	}
	var stdout, stderr bytes.Buffer
	if code := run(append(append([]string{}, goldenArgs...), "-exp", "table3,fig6"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-exp table3,fig6 differs from the two goldens in turn:\n--- got ---\n%s\n--- want ---\n%s",
			stdout.String(), want)
	}
}

// TestBadFlag: an unknown flag, and a numeric flag with no meaning, are
// usage errors that run nothing. A duration that is not positive used
// to run a study (zero silently meant 5 minutes, a negative one printed
// 100% no-loop), and a negative worker count meant one per CPU.
func TestBadFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-definitely-not-a-flag"}, "definitely-not-a-flag"},
		{[]string{"-duration", "-5s"}, "-duration -5s"},
		{[]string{"-duration", "0s"}, "-duration 0s"},
		{[]string{"-workers", "-3"}, "-workers -3"},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append(append([]string{}, goldenArgs...), "-exp", "fig6"), c.args...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a usage error printed output:\n%s", c.args, stdout.String())
		}
	}
}

// TestMetricsSnapshotParity: -metrics writes a snapshot file and the
// experiment output on stdout stays byte-identical to an unobserved
// run — the CLI-level form of the observation-only guarantee. The
// study's counters count the study alone, whatever -exp renders: its
// runs, one per sunk record, and each loop its records hold as one
// detect.stream.closed (every run tees the stream detector). The side
// runs of the simulating generators in -exp all only add
// campaign.side_runs.
func TestMetricsSnapshotParity(t *testing.T) {
	for _, c := range []struct {
		exp      string
		sideRuns bool
	}{
		{"fig6", false},
		{"all", true},
	} {
		t.Run(c.exp, func(t *testing.T) {
			var plainOut, plainErr bytes.Buffer
			args := append(append([]string{}, goldenArgs...), "-exp", c.exp)
			if code := run(args, &plainOut, &plainErr); code != 0 {
				t.Fatalf("plain exit %d, stderr: %s", code, plainErr.String())
			}

			dir := t.TempDir()
			snap := filepath.Join(dir, "metrics.json")
			sunk := filepath.Join(dir, "records.jsonl")
			var obsOut, obsErr bytes.Buffer
			args = append(args, "-metrics", snap, "-sink", sunk)
			if code := run(args, &obsOut, &obsErr); code != 0 {
				t.Fatalf("-metrics exit %d, stderr: %s", code, obsErr.String())
			}
			if !bytes.Equal(plainOut.Bytes(), obsOut.Bytes()) {
				t.Error("stdout changed when -metrics was attached")
			}

			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatalf("snapshot not written: %v", err)
			}
			var doc struct {
				Counters []struct {
					Name  string `json:"name"`
					Value int64  `json:"value"`
				} `json:"counters"`
				Histograms []struct {
					Name    string `json:"name"`
					Samples int64  `json:"samples"`
				} `json:"histograms"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("snapshot is not JSON: %v\n%s", err, data)
			}
			counters := map[string]int64{}
			for _, c := range doc.Counters {
				counters[c.Name] = c.Value
			}
			lines, err := os.ReadFile(sunk)
			if err != nil {
				t.Fatalf("record sink not written: %v", err)
			}
			records, loops := 0, 0
			for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
				rec, err := loopscope.DecodeStudyRecord(line)
				if err != nil {
					t.Fatalf("undecodable sunk record: %v", err)
				}
				records++
				loops += len(rec.Analysis.Loops)
			}
			for _, name := range []string{"campaign.runs", "uesim.runs"} {
				if counters[name] != int64(records) {
					t.Errorf("%s = %d, want the study's %d runs", name, counters[name], records)
				}
			}
			if loops == 0 || counters["detect.stream.closed"] != int64(loops) {
				t.Errorf("detect.stream.closed = %d, want the study's %d loops",
					counters["detect.stream.closed"], loops)
			}
			if _, ok := counters["campaign.side_runs"]; ok != c.sideRuns {
				t.Errorf("campaign.side_runs in snapshot = %v, want %v", ok, c.sideRuns)
			}
			spans := false
			for _, h := range doc.Histograms {
				if strings.HasPrefix(h.Name, "stage.") && h.Samples > 0 {
					spans = true
				}
			}
			if !spans {
				t.Error("snapshot has no stage span histograms")
			}
		})
	}
}

// TestMetricsWriteError: an unwritable -metrics path fails the run
// after the study completes.
func TestMetricsWriteError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "fig6",
		"-metrics", filepath.Join(t.TempDir(), "no-such-dir", "m.json"))
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1 on an unwritable metrics path", code)
	}
}

// TestExportDataset drives the CSV export path through a temp dir.
func TestExportDataset(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-export", dir)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"runs.csv", "loops.csv", "locations.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing export: %v", err)
		}
		if len(bytes.Split(data, []byte("\n"))) < 2 {
			t.Errorf("%s: no data rows", name)
		}
	}
}
