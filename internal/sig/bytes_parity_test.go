package sig

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/racecheck"
)

// This file is the parity wall between the []byte streaming parser
// (parse.go) and the retired string parser preserved verbatim in
// reference_test.go: differential fuzzing, corrupted-golden deep
// equality, salvage edge cases, observability counter parity, and the
// steady-state allocation pins that keep the zero-allocation property
// from regressing silently.

// equalValueNaN is reflect.DeepEqual with one change: two NaN floats
// compare equal. Sscanf's %f accepts "NaN", so a fuzzer can legally
// drive NaN into a measurement field through BOTH parsers — identical
// behavior that plain DeepEqual would misreport as divergence.
func equalValueNaN(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		af, bf := a.Float(), b.Float()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValueNaN(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValueNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !equalValueNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !equalValueNaN(iter.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValueNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		// No Complex/Chan/Func values flow through sig events.
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// eventsEquivalent compares two parsed logs NaN-aware.
func eventsEquivalent(a, b *Log) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return equalValueNaN(reflect.ValueOf(a.Events), reflect.ValueOf(b.Events))
}

// requireByteRefParity parses input with both parsers in the given mode
// and fails the test on any divergence in events, salvage or error.
func requireByteRefParity(t *testing.T, input string, lenient bool) {
	t.Helper()
	gotLog, gotSal, gotErr := parseLog(strings.NewReader(input), lenient, nil)
	refLog, refSal, refErr := refParse(strings.NewReader(input), lenient, nil)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("error presence diverges: byte=%v reference=%v", gotErr, refErr)
	}
	if gotErr != nil && gotErr.Error() != refErr.Error() {
		t.Fatalf("error text diverges:\n  byte: %s\n   ref: %s", gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	if !eventsEquivalent(gotLog, refLog) {
		t.Fatalf("events diverge: byte kept %d, reference %d (or contents differ)",
			gotLog.Len(), refLog.Len())
	}
	if !reflect.DeepEqual(gotSal, refSal) {
		t.Fatalf("salvage diverges:\n  byte: %+v\n   ref: %+v", gotSal, refSal)
	}
}

// FuzzParseBytes is the differential fuzzer for the tentpole: on
// arbitrary input, the []byte parser and the preserved string parser
// must agree on every kept event, every salvage figure and every error
// message, in both strict and lenient mode.
func FuzzParseBytes(f *testing.F) {
	f.Add(sampleLog().String(), true)
	f.Add(sampleLog().String(), false)
	f.Add("", true)
	// Interning-relevant shapes: one cell line repeated across many
	// events, and runs of identical message names.
	rep := strings.Repeat(
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
			"  Physical Cell ID = 393, Freq = 521310\n", 16)
	f.Add(rep, true)
	f.Add(strings.Repeat("00:00:02.000 LTE RRC OTA Packet -- UL_DCCH / RRCConnectionReconfigurationComplete\n", 12), true)
	// CRLF/LF mixes, including a bare CR inside a token (Sscanf treats
	// \r as white space; the fast paths must fall back, not diverge).
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n"+
		"  Physical Cell ID = 393, Freq = 521310\r\n"+
		"00:00:02.000 LTE RRC OTA Packet -- DL_DCCH / RRCConnectionRelease\n", true)
	f.Add("00:00:03.000 SYS -- EXCEPTION\n  mm5g_state DEREGISTERED,\r substate NO_CELL_AVAILABLE\n", true)
	// Numeric edges: overflow-length digit runs, signs, long mantissas,
	// NaN through %f, leading-space header quirk.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 99999999999999999999, Freq = +521310\n", true)
	f.Add("00:00:01.000 LTE RRC OTA Packet -- UL_DCCH / MeasurementReport\n"+
		"  cell 393@521310, rsrp NaN, rsrq -12.50000000000000001\n", true)
	f.Add(" 00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 393, Freq = 521310", true)
	// Truncated final line without EOL and a garbled header mid-capture.
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"  Physical Cell ID = 393, Freq = 521310\n"+
		"00:00:02.0", true)
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n"+
		"\x00\xff garbled \x80 header\n"+
		"  Physical Cell ID = 393, Freq = 521310\n", true)
	if data, err := os.ReadFile(filepath.Join("testdata", "corrupt_garbled.log")); err == nil {
		f.Add(string(data), true)
	}
	for _, c := range measResultCases() {
		f.Add(c.input, true)
		f.Add(c.input, false)
	}
	f.Fuzz(func(t *testing.T, input string, lenient bool) {
		requireByteRefParity(t, input, lenient)
	})
}

// canonMeasResult is a measResult line as the emitter writes it, the
// shape scanMeasResultB decodes as the line is scanned.
const canonMeasResult = "measResult {cell 393@521310, role PCell, rsrp -80.5, rsrq -10.5}"

// measReport wraps indented detail lines in a MeasurementReport header.
func measReport(lines ...string) string {
	s := "00:00:04.000 NR5G RRC OTA Packet -- UL_DCCH / MeasurementReport\n"
	for _, l := range lines {
		s += "  " + l + "\n"
	}
	return s
}

// captureCase is a named capture for a parity table.
type captureCase struct{ name, input string }

// measResultCases are the captures that take each exit of
// scanMeasResultB, and the ways a report can mix decoded and staged
// lines. Each off-canon line sits between two canonical ones, so the
// decoded entries, the staged miss and the staged canonical line after
// it must come out in line order.
func measResultCases() []captureCase {
	var cases []captureCase
	for _, c := range []struct{ name, line string }{
		{"unknown role", "measResult {cell 393@521310, role Primary, rsrp -80.5, rsrq -10.5}"},
		{"decimal comma", "measResult {cell 393@521310, role PCell, rsrp -7,3, rsrq -10.5}"},
		{"no space after comma", "measResult {cell 393@521310, role PCell, rsrp -80.5,rsrq -10.5}"},
		{"missing brace", "measResult {cell 393@521310, role PCell, rsrp -80.5, rsrq -10.5"},
		{"doubled brace", "measResult {cell 393@521310, role PCell, rsrp -80.5, rsrq -10.5}}"},
		{"reordered fields", "measResult {role SCell, cell 393@521310, rsrq -10.5, rsrp -80.5}"},
		{"duplicated field", "measResult {cell 393@521310, role PCell, rsrp -80.5, rsrp -81.5, rsrq -10.5}"},
		{"plus sign", "measResult {cell +393@521310, role PSCell, rsrp +80.5, rsrq -10.5}"},
		{"16-digit mantissa", "measResult {cell 393@521310, role PCell, rsrp -80.12345678901234, rsrq -10.5}"},
		{"NaN", "measResult {cell 393@521310, role candidate, rsrp NaN, rsrq -10.5}"},
		{"doubled space", "measResult {cell 393@521310,  role PCell, rsrp -80.5, rsrq -10.5}"},
	} {
		cases = append(cases, captureCase{c.name, measReport(canonMeasResult, c.line, canonMeasResult)})
	}
	return append(cases, []captureCase{
		{"first line misses, later lines hit", measReport(
			"measResult {cell 393@521310, role PCell, rsrp -80.5, rsrq -1e1}",
			canonMeasResult,
			"measResult {cell 17@387410, role candidate, rsrp -101.0, rsrq -14.5}")},
		{"foreign detail lines in a report", measReport(
			"Physical Cell ID = 393, Freq = 521310", canonMeasResult, "measResult{cell 1@2}", canonMeasResult)},
		{"measResult line in a non-report record",
			"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
				"  Physical Cell ID = 393, Freq = 521310\n" +
				"  " + canonMeasResult + "\n" +
				measReport(canonMeasResult)},
		{"oversized line inside a report", measReport(canonMeasResult) +
			"  " + strings.Repeat("x", maxLineBytes) + "\n" +
			measReport("measResult {cell 7@387410, role SCell, rsrp -90.0, rsrq -12.0}")},
	}...)
}

// TestMeasResultFastPathMatchesReference: on every exit of
// scanMeasResultB, and on reports that decode some lines as they are
// scanned and stage the rest, the parser keeps the reference parser's
// events, entry order included, its salvage and its error text, in
// both modes.
func TestMeasResultFastPathMatchesReference(t *testing.T) {
	for _, c := range measResultCases() {
		for _, mode := range []struct {
			name    string
			lenient bool
		}{{"lenient", true}, {"strict", false}} {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				requireByteRefParity(t, c.input, mode.lenient)
			})
		}
	}
}

// TestByteParserMatchesReferenceOnGoldens locks byte-parser ≡
// reference-parser over every golden capture, clean and corrupted, in
// both modes — including deep-equal Salvage reports on the corrupted
// set (the ISSUE's corrupted-golden anchor).
func TestByteParserMatchesReferenceOnGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden captures found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			lenient bool
		}{{"lenient", true}, {"strict", false}} {
			t.Run(filepath.Base(file)+"/"+mode.name, func(t *testing.T) {
				requireByteRefParity(t, string(data), mode.lenient)
			})
		}
	}
}

// TestSalvageEdgesByteVsReference pins the awkward capture endings and
// mid-stream damage shapes the scanner rewrite could plausibly have
// changed: a final line truncated without a terminator, a garbled
// header in the middle of a capture, and an oversized line as the very
// last line of the stream (with and without its newline).
func TestSalvageEdgesByteVsReference(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(clean)
	huge := strings.Repeat("x", maxLineBytes+7)
	cases := map[string]string{
		"truncated final line, no EOL": strings.TrimSuffix(text, "\n")[:len(text)-9],
		"garbled header mid-capture": strings.Replace(text,
			"RRC OTA Packet", "R\x00C \xffTA P\x80cket", 1),
		"oversized last line with EOL":    text + huge + "\n",
		"oversized last line without EOL": text + huge,
		"oversized only line without EOL": huge,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			requireByteRefParity(t, input, true)
		})
	}
}

// TestOversizedFinalLineNotSwallowed: a capture whose oversized line is
// the last line — unterminated — still produces a skipped-line salvage
// entry and an oversized-counter hit, not a silent EOF.
func TestOversizedFinalLineNotSwallowed(t *testing.T) {
	input := "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		strings.Repeat("j", maxLineBytes+1) // no trailing newline
	reg := obs.NewRegistry()
	log, sal, err := ParseLenientObserved(strings.NewReader(input), reg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 1 {
		t.Fatalf("kept %d events, want 1", log.Len())
	}
	if sal.LinesSkipped != 1 {
		t.Errorf("LinesSkipped = %d, want 1 (the oversized final line)", sal.LinesSkipped)
	}
	if got := reg.Counter("sig.lines.oversized").Value(); got != 1 {
		t.Errorf("sig.lines.oversized = %d, want 1", got)
	}
	if len(sal.Errors) == 0 {
		t.Fatal("salvage has no quarantine entry for the oversized final line")
	}
	last := sal.Errors[len(sal.Errors)-1]
	if !strings.Contains(last.Err.Error(), "4 MiB") {
		t.Errorf("last salvage entry = %v, want the line-too-long cause", last)
	}
}

// TestObservedCounterParityByteVsReference: the flushed obs counters of
// the two parsers agree on a corrupted capture.
func TestObservedCounterParityByteVsReference(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := faults.New(7, faults.Profile(0.10)).Corrupt(string(clean))
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	if _, _, err := parseLog(strings.NewReader(corrupted), true, regA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := refParse(strings.NewReader(corrupted), true, regB); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sig.lines.read", "sig.lines.oversized", "sig.lines.skipped",
		"sig.records.dropped", "sig.events.kept",
	} {
		if got, want := regA.Counter(name).Value(), regB.Counter(name).Value(); got != want {
			t.Errorf("%s = %d (byte), want %d (reference)", name, got, want)
		}
	}
}

// TestTeeSeesExactlyKeptEvents: ParseTo delivers to its sink the same
// events, in the same order, as its mode's Log-returning entry point
// keeps. Lenient, it reports the same Salvage (EventsKept included) as
// ParseLenientObserved; strict, it succeeds or fails exactly as Parse
// does, with the same *ParseError on the first malformed record.
func TestTeeSeesExactlyKeptEvents(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("lenient", func(t *testing.T) {
		corrupted := faults.New(3, faults.Profile(0.10)).Corrupt(string(clean))
		var sunk Log
		sal, err := ParseTo(strings.NewReader(corrupted), true, nil, &sunk)
		if err != nil {
			t.Fatal(err)
		}
		log, want, err := ParseLenientObserved(strings.NewReader(corrupted), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log.Events, sunk.Events) {
			t.Fatalf("sink saw %d events, ParseLenientObserved kept %d (or order/content differs)",
				sunk.Len(), log.Len())
		}
		if !reflect.DeepEqual(sal, want) {
			t.Fatalf("salvage diverges:\n  sink: %+v\n   log: %+v", sal, want)
		}
		if sal.EventsKept != sunk.Len() || sal.Clean() {
			t.Fatalf("EventsKept = %d for %d sunk events (clean=%v); the fixture must keep events and salvage",
				sal.EventsKept, sunk.Len(), sal.Clean())
		}
	})
	mangled := strings.Replace(string(clean), "rsrp -", "rsrp x-", 1)
	if mangled == string(clean) {
		t.Fatal("fixture has no rsrp detail to corrupt")
	}
	for _, tc := range []struct {
		name  string
		text  string
		fails bool
	}{
		{"strict", string(clean), false},
		{"strict-malformed", mangled, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sunk Log
			sal, err := ParseTo(strings.NewReader(tc.text), false, nil, &sunk)
			log, wantErr := Parse(strings.NewReader(tc.text))
			if (wantErr != nil) != tc.fails {
				t.Fatalf("Parse error = %v, want a failure: %v", wantErr, tc.fails)
			}
			if !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("ParseTo error = %v, Parse error = %v", err, wantErr)
			}
			if wantErr != nil {
				var pe *ParseError
				if !errors.As(err, &pe) || sal != nil {
					t.Fatalf("strict failure = (%+v, %T), want (nil, *ParseError)", sal, err)
				}
				return
			}
			if !reflect.DeepEqual(log.Events, sunk.Events) {
				t.Fatalf("sink saw %d events, Parse kept %d (or order/content differs)",
					sunk.Len(), log.Len())
			}
			if sal.EventsKept != log.Len() || !sal.Clean() {
				t.Fatalf("salvage %+v for %d parsed events, want a clean report counting them", sal, log.Len())
			}
		})
	}
}

// TestLineScannerZeroAllocsSteadyState pins the scanner's central
// property: after warm-up, yielding lines allocates nothing — neither
// on the zero-copy fast path nor on the CRLF trim.
func TestLineScannerZeroAllocsSteadyState(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	data := bytes.Repeat([]byte(
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n"+
			"  Physical Cell ID = 393, Freq = 521310\n"), 64)
	rd := bytes.NewReader(data)
	br := bufio.NewReaderSize(rd, 64<<10)
	s := &lineScanner{br: br, max: maxLineBytes}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		br.Reset(rd)
		for {
			if _, _, err := s.next(); err == io.EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("lineScanner.next allocates %.1f times per capture sweep, want 0", allocs)
	}
}

// TestLineScannerZeroAllocsMultiChunk: lines spanning bufio windows use
// the reused assembly buffer — steady-state zero allocations there too.
func TestLineScannerZeroAllocsMultiChunk(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	line := bytes.Repeat([]byte("y"), 1<<14) // 16 KiB line, 4 KiB window
	data := bytes.Join([][]byte{line, line, line}, []byte("\n"))
	rd := bytes.NewReader(data)
	br := bufio.NewReaderSize(rd, 4<<10)
	s := &lineScanner{br: br, max: maxLineBytes}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		br.Reset(rd)
		for {
			if _, _, err := s.next(); err == io.EOF {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("multi-chunk next allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestParseSteadyStateAllocsPerLine pins the whole parse loop's
// steady-state allocation budget on a clean golden capture: the
// remaining allocations are per-EVENT (interface boxing in Log.Append,
// message-internal slices) and per-parse (the Log, the flush closure),
// never per-LINE. The bound is deliberately expressed per line so a
// reintroduced per-line copy (the old trimEOL, a map store on the hot
// path) trips it immediately: the capture has ~3 lines per event, so
// per-line parasitic allocations triple the figure.
func TestParseSteadyStateAllocsPerLine(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "s1e3_capture.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines == 0 {
		t.Fatal("empty golden")
	}
	rd := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(data)
		if _, _, err := parseLog(rd, true, nil); err != nil {
			t.Fatal(err)
		}
	})
	perLine := allocs / float64(lines)
	if perLine > 1.0 {
		t.Errorf("parse allocates %.2f per line (%.0f total over %d lines), want ≤ 1.0 — a per-line allocation crept back into the hot loop",
			perLine, allocs, lines)
	}
}
