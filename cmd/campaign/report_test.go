package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/checkpoint"
)

// reportArgs returns the golden-pinned study flags that render table3
// and fig6 into a markdown report at path, plus extras.
func reportArgs(path string, extra ...string) []string {
	args := append(append([]string{}, goldenArgs...), "-exp", "table3,fig6", "-report", path)
	return append(args, extra...)
}

// runReport runs the CLI, which must succeed and write a report, and
// returns the report and stdout.
func runReport(t *testing.T, path string, extra ...string) (report, stdout []byte) {
	t.Helper()
	var out, stderr bytes.Buffer
	if code := run(reportArgs(path, extra...), &out, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", extra, code, stderr.String())
	}
	report, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v: report not written: %v", extra, err)
	}
	if !strings.HasPrefix(string(report), "# 5G ON-OFF loop study") || !strings.Contains(string(report), "## fig6") {
		t.Fatalf("%v: not a report of fig6:\n%s", extra, report)
	}
	return report, out.Bytes()
}

// TestReportWritesMetrics: -report with -metrics writes the snapshot
// too. It used to exit 0 without writing one.
func TestReportWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "m.json")
	runReport(t, filepath.Join(dir, "r.md"), "-metrics", snap)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if !bytes.Contains(data, []byte(`"campaign.runs"`)) {
		t.Errorf("snapshot has no campaign.runs counter:\n%s", data)
	}
}

// TestReportComposesWithCheckpoint: a -report run that journals its
// study, and a -report run that resumes from that journal, each write
// the report a plain -report run writes; a -sink on the journaled run
// streams every record. Both runs used to be usage errors.
func TestReportComposesWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	plain, _ := runReport(t, filepath.Join(dir, "plain.md"))

	ckpt := filepath.Join(dir, "study.ckpt")
	sunk := filepath.Join(dir, "records.jsonl")
	journaled, _ := runReport(t, filepath.Join(dir, "journaled.md"), "-checkpoint", ckpt, "-sink", sunk)
	if !bytes.Equal(journaled, plain) {
		t.Error("-checkpoint -sink changed the report")
	}
	resumed, _ := runReport(t, filepath.Join(dir, "resumed.md"), "-checkpoint", ckpt, "-resume", "-workers", "4")
	if !bytes.Equal(resumed, plain) {
		t.Error("-resume changed the report")
	}

	jr, entries, _, err := checkpoint.Open(ckpt)
	if err == nil {
		err = jr.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(sunk)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	records := 0
	for sc.Scan() {
		if _, err := loopscope.DecodeStudyRecord(sc.Bytes()); err != nil {
			t.Fatalf("sink line %d does not decode: %v", records+1, err)
		}
		records++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(entries) - 1; records == 0 || records != want { // the journal's first entry is its header
		t.Errorf("sink streamed %d records, the journal holds %d", records, want)
	}
}

// TestReportAndExport: -report and -export together write both the
// report and the CSV tables. The export used to be skipped silently.
func TestReportAndExport(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "r.md")
	csvDir := filepath.Join(dir, "csv")
	_, stdout := runReport(t, rep, "-export", csvDir)
	for _, name := range []string{"runs.csv", "loops.csv", "locations.csv"} {
		path := filepath.Join(csvDir, name)
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing export: %v", err)
		}
		if !bytes.Contains(stdout, []byte("wrote "+path+"\n")) {
			t.Errorf("stdout does not name %s:\n%s", path, stdout)
		}
	}
	if !bytes.Contains(stdout, []byte("wrote "+rep+"\n")) {
		t.Errorf("stdout does not name the report:\n%s", stdout)
	}
}
