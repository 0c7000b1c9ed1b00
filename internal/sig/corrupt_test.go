package sig

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
)

// Regenerate the corrupted golden logs (and print their salvage
// counters for re-pinning) with:
//
//	go test ./internal/sig/ -run TestCorruptedGoldens -update-goldens -v
var updateGoldens = flag.Bool("update-goldens", false, "regenerate testdata/corrupt_*.log")

// cleanCaptureEvents is the event count of testdata/s1e3_capture.log,
// the uncorrupted source of every golden below.
const cleanCaptureEvents = 305

// corruptionTable drives the golden corruption suite: each entry is one
// fault class (or mix) applied deterministically to the reference
// capture, with the salvage counters pinned.
var corruptionTable = []struct {
	name  string
	file  string
	seed  int64
	rates faults.Rates

	wantKept, wantDropped, wantSkipped int
}{
	{
		name: "uniform5pct", file: "corrupt_uniform5.log",
		seed: 1001, rates: faults.Uniform(0.05),
		wantKept: 282, wantDropped: 20, wantSkipped: 28,
	},
	{
		name: "garbled", file: "corrupt_garbled.log",
		seed: 1002, rates: faults.Rates{GarbleField: 0.15},
		wantKept: 105, wantDropped: 151, wantSkipped: 49,
	},
	{
		name: "restart", file: "corrupt_restart.log",
		seed: 1003, rates: faults.Rates{Restart: 1, ClockJump: 0.05},
		wantKept: 305, wantDropped: 0, wantSkipped: 2,
	},
	{
		name: "truncated", file: "corrupt_truncated.log",
		seed: 1004, rates: faults.Rates{Truncate: 1, DropLine: 0.03},
		wantKept: 284, wantDropped: 2, wantSkipped: 0,
	},
	{
		name: "reordered", file: "corrupt_reordered.log",
		seed: 1005, rates: faults.Rates{ReorderSwap: 0.2, DupLine: 0.05, Interleave: 0.05},
		wantKept: 320, wantDropped: 2, wantSkipped: 91,
	},
}

// TestCorruptedGoldens regenerates each corrupted capture from the
// clean reference and requires it to equal the checked-in golden byte
// for byte — this is what pins the injector's output — then parses the
// golden in lenient mode and pins exactly what salvage recovers from it.
func TestCorruptedGoldens(t *testing.T) {
	clean, err := os.ReadFile("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptionTable {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			out := faults.New(tc.seed, tc.rates).Corrupt(string(clean))
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(data) {
				t.Fatalf("injector output (%d bytes) differs from %s (%d bytes)", len(out), tc.file, len(data))
			}
			log, sal, err := ParseLenientObserved(strings.NewReader(string(data)), nil)
			if err != nil {
				t.Fatalf("lenient parse must not error on corruption: %v", err)
			}
			if *updateGoldens {
				t.Logf("%s: wantKept: %d, wantDropped: %d, wantSkipped: %d",
					tc.name, sal.EventsKept, sal.RecordsDropped, sal.LinesSkipped)
			}
			if sal.EventsKept != log.Len() {
				t.Errorf("EventsKept %d disagrees with log length %d", sal.EventsKept, log.Len())
			}
			if sal.EventsKept+sal.RecordsDropped > cleanCaptureEvents+20 {
				t.Errorf("recovered+dropped %d is implausible for a %d-event source",
					sal.EventsKept+sal.RecordsDropped, cleanCaptureEvents)
			}
			if got := [3]int{sal.EventsKept, sal.RecordsDropped, sal.LinesSkipped}; got != [3]int{tc.wantKept, tc.wantDropped, tc.wantSkipped} {
				t.Errorf("salvage counters (kept, dropped, skipped) = %v, want {%d %d %d}",
					got, tc.wantKept, tc.wantDropped, tc.wantSkipped)
			}
			if len(sal.Errors) == 0 && sal.RecordsDropped > 0 {
				t.Error("dropped records must leave ParseError detail")
			}
		})
	}
}

// TestLenientRecoveryAt5Pct pins the headline robustness guarantee: at
// a 5% per-line fault rate, salvage parsing recovers at least 90% of
// the capture's events.
func TestLenientRecoveryAt5Pct(t *testing.T) {
	clean, err := os.ReadFile("testdata/s1e3_capture.log")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		corrupted := faults.New(seed, faults.Uniform(0.05)).Corrupt(string(clean))
		_, sal, err := ParseLenientObserved(strings.NewReader(corrupted), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ratio := float64(sal.EventsKept) / cleanCaptureEvents; ratio < 0.90 {
			t.Errorf("seed %d: recovered %.1f%% of events (%d/%d), want ≥ 90%%",
				seed, 100*ratio, sal.EventsKept, cleanCaptureEvents)
		}
	}
}

// TestLenientMatchesStrictOnCleanInput: salvage mode is a strict
// superset — on an undamaged capture it recovers every event with an
// all-clean report.
func TestLenientMatchesStrictOnCleanInput(t *testing.T) {
	text := sampleLog().String()
	strict, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	lenient, sal, err := ParseLenientObserved(strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lenient.Len() != strict.Len() || sal.EventsKept != strict.Len() {
		t.Errorf("lenient kept %d events, strict %d", lenient.Len(), strict.Len())
	}
	if !sal.Clean() {
		t.Errorf("clean capture produced salvage actions: %+v", sal)
	}
	if sal.KeptRatio() != 1 {
		t.Errorf("KeptRatio = %v on a clean capture", sal.KeptRatio())
	}
}

// TestLenientQuarantinesMalformedRecord: the malformed record is
// dropped with a ParseError; its neighbors survive.
func TestLenientQuarantinesMalformedRecord(t *testing.T) {
	text := "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		"00:00:02.000 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		"  sCellToAddModList {sCellIndex one, physCellId 273, absoluteFrequencySSB 387410}\n" +
		"00:00:03.000 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup\n" +
		"  Physical Cell ID = 393, Freq = 521310\n"
	log, sal, err := ParseLenientObserved(strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("kept %d events, want the 2 healthy neighbors", log.Len())
	}
	if sal.RecordsDropped != 1 || len(sal.Errors) != 1 {
		t.Fatalf("salvage = %+v, want exactly one quarantined record", sal)
	}
	if sal.Errors[0].Line != 3 {
		t.Errorf("quarantine line = %d, want 3 (the record header)", sal.Errors[0].Line)
	}
	if !strings.Contains(sal.Errors[0].Error(), "sCellToAddModList") {
		t.Errorf("quarantine cause should name the field: %v", sal.Errors[0])
	}
}

// TestOversizedLine covers the scanner-cap fix: strict parsing surfaces
// a ParseError with line context instead of a bare bufio error, and
// lenient parsing skips the line, resyncs at the next header, and keeps
// the final in-progress event.
func TestOversizedLine(t *testing.T) {
	huge := strings.Repeat("x", maxLineBytes+16)
	text := "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		huge + "\n" +
		"00:00:02.000 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup\n" +
		"  Physical Cell ID = 393, Freq = 521310\n"

	_, err := Parse(strings.NewReader(text))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("strict parse error = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 3 || pe.Err != ErrLineTooLong {
		t.Errorf("ParseError = line %d, err %v; want line 3, ErrLineTooLong", pe.Line, pe.Err)
	}

	log, sal, err := ParseLenientObserved(strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("lenient kept %d events, want both (incl. the one after the junk)", log.Len())
	}
	if sal.LinesSkipped != 1 {
		t.Errorf("LinesSkipped = %d, want 1", sal.LinesSkipped)
	}

	// An oversized *indented* line poisons its record: the record is
	// quarantined, the following one survives.
	text2 := "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n" +
		"  Physical Cell ID = 393, Freq = 521310\n" +
		"  " + huge + "\n" +
		"00:00:02.000 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup\n" +
		"  Physical Cell ID = 393, Freq = 521310\n"
	log2, sal2, err := ParseLenientObserved(strings.NewReader(text2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 1 || sal2.RecordsDropped != 1 {
		t.Errorf("kept %d events with %d dropped, want 1 and 1", log2.Len(), sal2.RecordsDropped)
	}
}

// FuzzParseLenient asserts the salvage invariants on arbitrary input:
// never panic, never error on string content, never keep more events
// than a successful strict parse of the same input sees, and keep the
// Salvage counters consistent with the returned log.
func FuzzParseLenient(f *testing.F) {
	f.Add(sampleLog().String())
	clean, err := os.ReadFile("testdata/s1e3_capture.log")
	if err == nil {
		f.Add(faults.New(99, faults.Profile(0.10)).Corrupt(string(clean)))
	}
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration\n  Physical Cell ID = bogus\n")
	f.Add("garbage\n\n  indented orphan\n99:99:99.999 nonsense")
	f.Fuzz(func(t *testing.T, input string) {
		log, sal, err := ParseLenientObserved(strings.NewReader(input), nil)
		if err != nil {
			t.Fatalf("lenient parse errored on string input: %v", err)
		}
		if sal.EventsKept != log.Len() {
			t.Fatalf("EventsKept %d != log length %d", sal.EventsKept, log.Len())
		}
		if strict, err := Parse(strings.NewReader(input)); err == nil && sal.EventsKept > strict.Len() {
			t.Fatalf("lenient kept %d events, strict parse only %d", sal.EventsKept, strict.Len())
		}
	})
}
