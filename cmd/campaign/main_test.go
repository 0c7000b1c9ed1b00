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

// TestExperimentGoldens locks the CLI output of representative
// experiments end-to-end: study execution, aggregation and rendering.
func TestExperimentGoldens(t *testing.T) {
	for _, exp := range []string{"table3", "fig6"} {
		t.Run(exp, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(append([]string{}, goldenArgs...), "-exp", exp)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", exp+".golden")
			if *update {
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

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append(append([]string{}, goldenArgs...), "-exp", "nope"), &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestMetricsSnapshotParity: -metrics writes a snapshot file and the
// experiment output on stdout stays byte-identical to an unobserved
// run — the CLI-level form of the observation-only guarantee. Every run
// tees the stream detector, so even this clean study's snapshot counts
// each loop its records hold as one detect.stream.closed.
func TestMetricsSnapshotParity(t *testing.T) {
	var plainOut, plainErr bytes.Buffer
	args := append(append([]string{}, goldenArgs...), "-exp", "fig6")
	if code := run(args, &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, plainErr.String())
	}

	dir := t.TempDir()
	snap := filepath.Join(dir, "metrics.json")
	sunk := filepath.Join(dir, "records.jsonl")
	var obsOut, obsErr bytes.Buffer
	args = append(append([]string{}, goldenArgs...), "-exp", "fig6", "-metrics", snap, "-sink", sunk)
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
	if counters["campaign.runs"] == 0 {
		t.Errorf("campaign.runs missing from snapshot: %v", counters)
	}
	if counters["uesim.runs"] != counters["campaign.runs"] {
		t.Errorf("uesim.runs = %d, campaign.runs = %d; retry-free study should match",
			counters["uesim.runs"], counters["campaign.runs"])
	}
	lines, err := os.ReadFile(sunk)
	if err != nil {
		t.Fatalf("record sink not written: %v", err)
	}
	loops := 0
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		rec, err := loopscope.DecodeStudyRecord(line)
		if err != nil {
			t.Fatalf("undecodable sunk record: %v", err)
		}
		loops += len(rec.Analysis.Loops)
	}
	if loops == 0 || counters["detect.stream.closed"] != int64(loops) {
		t.Errorf("detect.stream.closed = %d, want the study's %d loops",
			counters["detect.stream.closed"], loops)
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
