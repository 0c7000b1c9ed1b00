package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// capture exports one simulated looping capture per test binary and
// hands every test its path.
var capture = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "loopctl-test")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "cap.log")
	var out, errOut bytes.Buffer
	if code := run([]string{"export", path}, strings.NewReader(""), &out, &errOut); code != 0 {
		return "", os.ErrInvalid
	}
	return path, nil
})

func capturePath(t *testing.T) string {
	t.Helper()
	path, err := capture()
	if err != nil {
		t.Fatalf("export fixture: %v", err)
	}
	return path
}

// corruptedCapture clones the capture with one measResult RSRP value
// mangled, so strict parsing fails on a recognized record's details.
func corruptedCapture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), "rsrp -", "rsrp x-", 1)
	if mangled == string(data) {
		t.Fatal("capture has no rsrp detail to corrupt")
	}
	path := filepath.Join(t.TempDir(), "corrupt.log")
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExportAnalyzeRoundTrip(t *testing.T) {
	path := capturePath(t)
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("export produced no capture: %v", err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"analyze", path}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("analyze exit = %d; stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"events:", "occupancy:", "detected"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("analyze output is missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeStdin(t *testing.T) {
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"analyze", "-"}, bytes.NewReader(data), &out, &errOut); code != 0 {
		t.Fatalf("analyze - exit = %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "detected") {
		t.Errorf("stdin analysis found no loop:\n%s", out.String())
	}
}

// jsonDoc mirrors the fields the tests assert on.
type jsonDoc struct {
	Events  int `json:"events"`
	Salvage *struct {
		EventsKept     int      `json:"events_kept"`
		RecordsDropped int      `json:"records_dropped"`
		LinesSkipped   int      `json:"lines_skipped"`
		Errors         []string `json:"errors"`
	} `json:"salvage"`
	Loops []struct {
		Subtype string `json:"subtype"`
		Type    string `json:"type"`
	} `json:"loops"`
}

func TestAnalyzeJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "analyze", capturePath(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Events == 0 || len(doc.Loops) == 0 {
		t.Errorf("JSON document is empty: %+v", doc)
	}
	if doc.Salvage != nil {
		t.Errorf("strict analysis carries a salvage report: %+v", doc.Salvage)
	}
	for _, l := range doc.Loops {
		if l.Subtype == "" || l.Type == "" {
			t.Errorf("loop without classification: %+v", l)
		}
	}
}

func TestAnalyzeCorruptedStrict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"analyze", corruptedCapture(t)}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 on a corrupted capture", code)
	}
	if !strings.Contains(errOut.String(), "loopctl:") {
		t.Errorf("stderr is missing the error report: %s", errOut.String())
	}
}

func TestAnalyzeCorruptedLenient(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-lenient", "analyze", corruptedCapture(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "salvage:") {
		t.Errorf("lenient output is missing the salvage summary:\n%s", out.String())
	}
}

func TestAnalyzeCorruptedLenientJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-lenient", "-json", "analyze", corruptedCapture(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Salvage == nil || doc.Salvage.RecordsDropped == 0 {
		t.Errorf("lenient JSON is missing the salvage report: %+v", doc.Salvage)
	}
}

// TestAnalyzeOversizedFinalLineLenient: a capture whose last line blows
// the 4 MiB cap and has no terminating newline still analyzes fully —
// every event before it is kept and the oversized tail shows up as a
// skipped line with a quarantine entry, not a silent EOF.
func TestAnalyzeOversizedFinalLineLenient(t *testing.T) {
	data, err := os.ReadFile(capturePath(t))
	if err != nil {
		t.Fatal(err)
	}
	var clean jsonDoc
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "analyze", capturePath(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("clean analyze exit = %d; stderr: %s", code, errOut.String())
	}
	if err := json.Unmarshal(out.Bytes(), &clean); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "oversized-tail.log")
	tail := bytes.Repeat([]byte("x"), 4*1024*1024+1) // > maxLineBytes, unterminated
	if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-lenient", "-json", "analyze", path}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("lenient analyze exit = %d; stderr: %s", code, errOut.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Salvage == nil {
		t.Fatal("lenient analysis carries no salvage report")
	}
	if doc.Salvage.EventsKept != clean.Events {
		t.Errorf("events kept = %d, want all %d from the intact prefix",
			doc.Salvage.EventsKept, clean.Events)
	}
	if doc.Salvage.LinesSkipped != 1 {
		t.Errorf("lines skipped = %d, want 1 (the oversized unterminated tail)", doc.Salvage.LinesSkipped)
	}
	found := false
	for _, e := range doc.Salvage.Errors {
		if strings.Contains(e, "4 MiB") {
			found = true
		}
	}
	if !found {
		t.Errorf("no quarantine entry names the 4 MiB cap: %v", doc.Salvage.Errors)
	}
}

func TestDemo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"demo"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("demo exit = %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "simulated 3-minute run") {
		t.Errorf("demo output is missing the banner:\n%s", out.String())
	}
}

// TestMetricsFlagParity: -metrics appends a JSON snapshot to stderr and
// leaves stdout byte-identical to an unobserved run.
func TestMetricsFlagParity(t *testing.T) {
	path := capturePath(t)
	var plainOut, plainErr bytes.Buffer
	if code := run([]string{"analyze", path}, strings.NewReader(""), &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain exit = %d; stderr: %s", code, plainErr.String())
	}
	var obsOut, obsErr bytes.Buffer
	if code := run([]string{"-metrics", "analyze", path}, strings.NewReader(""), &obsOut, &obsErr); code != 0 {
		t.Fatalf("-metrics exit = %d; stderr: %s", code, obsErr.String())
	}
	if plainOut.String() != obsOut.String() {
		t.Error("stdout changed when -metrics was attached")
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name string `json:"name"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(obsErr.Bytes(), &snap); err != nil {
		t.Fatalf("stderr is not a JSON snapshot: %v\n%s", err, obsErr.String())
	}
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["sig.lines.read"] == 0 {
		t.Errorf("snapshot missing sig.lines.read: %v", found)
	}
	// The parser is the capture's one producer, and detection rides
	// its pass: one parse span, and steps counted by the detector.
	if got := found["stage.parse.spans"]; got != 1 {
		t.Errorf("stage.parse.spans = %d, want 1", got)
	}
	if found["detect.stream.steps"] == 0 {
		t.Errorf("snapshot missing detect.stream.steps: %v", found)
	}
}

// TestDurationAgreesAcrossReports: every figure loopctl gives for how
// long a capture lasted is the timeline's duration. On a capture whose
// clock goes backwards (a logger restart) that is longer than the last
// raw timestamp, because the timeline re-anchors the clock; the text
// header, the JSON duration_s, the occupancy total and -follow's end
// line must still agree.
func TestDurationAgreesAcrossReports(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "sig", "testdata", "corrupt_restart.log")
	output := func(args ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if code := run(append(args, "analyze", path), strings.NewReader(""), &out, &errOut); code != 0 {
			t.Fatalf("run(%q) exit = %d; stderr: %s", args, code, errOut.String())
		}
		return out.String()
	}
	field := func(text, re string) time.Duration {
		t.Helper()
		m := regexp.MustCompile(re).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("no match for %q in:\n%s", re, text)
		}
		d, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seconds := func(s float64) time.Duration { return time.Duration(math.Round(s*1e3)) * time.Millisecond }

	header := field(output(), `duration: (\S+),`)
	var doc struct {
		DurationS float64 `json:"duration_s"`
		Occupancy struct {
			IdleS float64 `json:"idle_s"`
			SAS   float64 `json:"sa_s"`
			NSAS  float64 `json:"nsa_s"`
			LTES  float64 `json:"lte_only_s"`
		} `json:"occupancy"`
	}
	if err := json.Unmarshal([]byte(output("-json")), &doc); err != nil {
		t.Fatal(err)
	}
	occ := doc.Occupancy
	got := map[string]time.Duration{
		"text header":     header,
		"json duration_s": seconds(doc.DurationS),
		"occupancy total": seconds(occ.IdleS + occ.SAS + occ.NSAS + occ.LTES),
		"follow end line": field(output("-follow", "-poll", "1ms", "-idle-exit", "1ms"), `capture ended after (\S+):`),
		"lenient header":  field(output("-lenient"), `duration: (\S+),`),
	}
	for name, d := range got {
		if d != header {
			t.Errorf("%s says %v, the text header %v", name, d, header)
		}
	}
}

// TestMetricsFlagDemo: the demo path routes the simulator's collector
// through RunConfig.Metrics.
func TestMetricsFlagDemo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-metrics", "demo"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "uesim.events.emitted") {
		t.Errorf("demo snapshot missing simulator counters:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "stage.simulate.seconds") {
		t.Errorf("demo snapshot missing the simulate span:\n%s", errOut.String())
	}
}

// TestJSONWorstSCellRSRP: the S1E2-style "poor SCell" evidence surfaces
// its measured RSRP in JSON, and steps without a measurement report
// omit the field entirely — the +Inf no-report sentinel (and the old 0
// sentinel it replaced) must never leak into the document.
func TestJSONWorstSCellRSRP(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", "analyze", capturePath(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errOut.String())
	}
	var doc struct {
		Steps []struct {
			Cause string   `json:"cause"`
			RSRP  *float64 `json:"worst_scell_rsrp_dbm"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	populated := 0
	for i, s := range doc.Steps {
		if s.RSRP == nil {
			continue
		}
		populated++
		if *s.RSRP == 0 {
			t.Errorf("step %d: worst_scell_rsrp_dbm = 0, the old phantom sentinel leaked", i)
		}
		if *s.RSRP > -20 || *s.RSRP < -160 {
			t.Errorf("step %d: worst_scell_rsrp_dbm = %v, not a plausible RSRP", i, *s.RSRP)
		}
	}
	// The looping fixture releases with measured SCells, so the field
	// must actually appear — guarding against omitempty eating it.
	if populated == 0 {
		t.Error("no step carries worst_scell_rsrp_dbm; the evidence consumer is dead")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,                       // no subcommand
		{"frobnicate"},            // unknown subcommand
		{"analyze"},               // missing file
		{"analyze", "a", "b"},     // too many args
		{"export"},                // missing file
		{"-no-such-flag", "demo"}, // unknown flag
		{"-json"},                 // flag but no subcommand
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed no usage/error text", args)
		}
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"analyze", filepath.Join(t.TempDir(), "nope.log")}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1 for a missing file", code)
	}
}

// oversizedCapture builds a >4 MiB capture whose middle line exceeds
// the parser's per-line cap, with healthy records on both sides.
func oversizedCapture(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n")
	b.WriteString("  Physical Cell ID = 393, Freq = 521310\n")
	b.WriteString(strings.Repeat("x", 4*1024*1024+512))
	b.WriteString("\n")
	b.WriteString("00:00:02.000 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup\n")
	b.WriteString("  Physical Cell ID = 393, Freq = 521310\n")
	path := filepath.Join(t.TempDir(), "oversized.log")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeOversizedLineStrict: the streaming parser hits the 4 MiB
// line cap partway through the file and the CLI reports it with line
// context instead of slurping the capture or printing a bufio error.
func TestAnalyzeOversizedLineStrict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"analyze", oversizedCapture(t)}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, "4 MiB") {
		t.Errorf("stderr should name the offending line and the cap: %q", msg)
	}
}

// TestAnalyzeOversizedLineLenient: with -lenient the junk line is
// skipped, both healthy records survive, and the salvage summary says
// so.
func TestAnalyzeOversizedLineLenient(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-lenient", "analyze", oversizedCapture(t)}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	msg := out.String()
	if !strings.Contains(msg, "2 events kept") || !strings.Contains(msg, "1 lines skipped") {
		t.Errorf("salvage summary missing from output:\n%s", msg)
	}
}
