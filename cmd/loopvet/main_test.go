package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/lint/checkers"
)

// chdir moves the test into dir and restores the working directory at
// cleanup (findModule resolves the module from the working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestRunSeededRegression drives the real CLI path over the seeded-bad
// module: CI's gate is this exit code, so a regression must flip it.
func TestRunSeededRegression(t *testing.T) {
	bad, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "driver", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, bad)
	var out, errOut bytes.Buffer
	if code := run([]string{"./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"loopvet/determinism", "loopvet/layering", "loopvet/exhaustive", "loopvet/floatcmp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output is missing a %s finding:\n%s", want, out.String())
		}
	}
}

// TestRunSubtreePattern checks that a pattern ending in "/..." names
// every package below its directory, as with go vet: the whole of
// badmod lives under internal/, and core's subtree holds exactly its
// layering and exhaustive findings.
func TestRunSubtreePattern(t *testing.T) {
	bad, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "driver", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, bad)
	lint := func(pattern string) []string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run([]string{pattern}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit code = %d, want 1; stderr: %s", pattern, code, errOut.String())
		}
		return strings.Split(strings.TrimSpace(out.String()), "\n")
	}
	all := lint("./...")
	if len(all) != 5 {
		t.Fatalf("./... printed %d findings, want 5:\n%s", len(all), strings.Join(all, "\n"))
	}
	if got := lint("./internal/..."); strings.Join(got, "\n") != strings.Join(all, "\n") {
		t.Errorf("./internal/... findings differ from ./...:\n%s", strings.Join(got, "\n"))
	}
	core := lint("./internal/core/...")
	if len(core) != 2 ||
		!strings.HasPrefix(core[0], "internal/core/core.go:") || !strings.Contains(core[0], "loopvet/layering") ||
		!strings.HasPrefix(core[1], "internal/core/core.go:") || !strings.Contains(core[1], "loopvet/exhaustive") {
		t.Errorf("./internal/core/... = %q, want core's layering and exhaustive findings", core)
	}
}

// TestRunJSON checks the machine-readable output mode.
func TestRunJSON(t *testing.T) {
	bad, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "driver", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, bad)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not a JSON report object: %v\n%s", err, out.String())
	}
	if len(report.Findings) != 5 {
		t.Errorf("got %d JSON findings, want 5", len(report.Findings))
	}
	for _, f := range report.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	// The full suite ran, and the report says so.
	for _, want := range []string{"determinism", "ctxflow", "lockcheck", "hotalloc"} {
		if !contains(report.Analyzers, want) {
			t.Errorf("analyzers list %v is missing %s", report.Analyzers, want)
		}
	}
}

// jsonReport mirrors the -json findings-mode object.
type jsonReport struct {
	Analyzers []string `json:"analyzers"`
	Findings  []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	} `json:"findings"`
	Stats []struct {
		Analyzer string  `json:"analyzer"`
		WallMS   float64 `json:"wall_ms"`
		Findings int     `json:"findings"`
	} `json:"stats"`
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestRunWaiversList checks the -waivers inventory mode: every waiver
// is listed with its used/unused status, and the mode exits 0 — the
// findings gate stays with the normal mode.
func TestRunWaiversList(t *testing.T) {
	stale, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "driver", "testdata", "stalemod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, stale)
	var out, errOut bytes.Buffer
	if code := run([]string{"-waivers", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d inventory lines, want 2:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "loopvet/floatcmp (used)") {
		t.Errorf("first waiver line = %q, want the used floatcmp waiver", lines[0])
	}
	if !strings.Contains(lines[1], "loopvet/floatcmp (unused)") {
		t.Errorf("second waiver line = %q, want the unused floatcmp waiver", lines[1])
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "internal/calc/calc.go:") {
			t.Errorf("inventory line %q is not module-relative file:line", l)
		}
	}
}

// TestRunCleanPackage checks the zero exit on a clean package of this
// module.
func TestRunCleanPackage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./internal/meas"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; output: %s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}

// TestRunStats checks the -budget cost table: every suite analyzer
// gets a row, the shared call-graph build gets its pseudo-row, and
// finding counts land on the analyzer that produced them.
func TestRunStats(t *testing.T) {
	bad, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "driver", "testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, bad)
	var out, errOut bytes.Buffer
	if code := run([]string{"-budget", "10m", "-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not a JSON report object: %v\n%s", err, out.String())
	}
	// The rows are exactly the callgraph pseudo-entry followed by the
	// suite's analyzers.
	var rows []string
	total := 0
	for _, s := range report.Stats {
		if s.WallMS < 0 {
			t.Errorf("stat %s has negative wall time %f", s.Analyzer, s.WallMS)
		}
		rows = append(rows, s.Analyzer)
		total += s.Findings
	}
	if want := append([]string{"callgraph"}, report.Analyzers...); strings.Join(rows, ",") != strings.Join(want, ",") {
		t.Errorf("stats rows = %v, want %v", rows, want)
	}
	if len(report.Analyzers) != len(checkers.Suite("")) {
		t.Errorf("report names %d analyzers, want the %d of the suite", len(report.Analyzers), len(checkers.Suite("")))
	}
	if total != len(report.Findings) {
		t.Errorf("stats count %d findings, report has %d", total, len(report.Findings))
	}

	// Text mode renders the same rows as a table.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-budget", "10m", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"analyzer", "wall_ms", "callgraph", "determinism", "hotalloc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats table is missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBudget checks the time gate: an absurdly small budget must
// flip an otherwise clean run to exit 1 and say which entry breached.
func TestRunBudget(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-budget", "1ns", "./internal/meas"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "over the 1ns budget") {
		t.Errorf("stderr is missing the budget breach: %s", errOut.String())
	}
	// The cost table is on stdout.
	if !strings.Contains(out.String(), "wall_ms") {
		t.Errorf("budget run did not print the stats table: %s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-budget", "10m", "./internal/meas"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0 under a generous budget; stderr: %s", code, errOut.String())
	}
}

// TestRunBadFlag checks the usage-error exit code, including a
// negative -budget, which would otherwise drop the time gate silently,
// the removed selection and stats flags, and -waivers -json, whose
// -json would otherwise be silently ignored.
func TestRunBadFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "usage: loopvet"},
		{[]string{"-budget", "-1s", "./internal/meas"}, "-budget -1s is negative"},
		{[]string{"-only", "determinism", "./internal/meas"}, "flag provided but not defined: -only"},
		{[]string{"-skip", "determinism", "./internal/meas"}, "flag provided but not defined: -skip"},
		{[]string{"-stats", "./internal/meas"}, "flag provided but not defined: -stats"},
		{[]string{"-waivers", "-json", "./internal/meas"}, "-waivers has no JSON form"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit code = %d, want 2; stdout: %s", tc.args, code, out.String())
			continue
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%q: stderr %q is missing %q", tc.args, errOut.String(), tc.want)
		}
	}
}
