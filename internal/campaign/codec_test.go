package campaign

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

// roundTrip encodes and decodes one record, requiring deep equality.
func roundTrip(t *testing.T, rec *Record) *Record {
	t.Helper()
	b, err := EncodeRecord(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRecord(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("record did not round-trip:\n want %+v\n  got %+v", rec, got)
	}
	return got
}

// TestCodecRealRecords round-trips every record of a faulted area run —
// salvage reports, loops and timelines with the +Inf sentinel all
// appear organically.
func TestCodecRealRecords(t *testing.T) {
	rates := faults.Profile(0.08)
	opts := Options{Seed: 42, Duration: 240 * time.Second, RunScale: 0.5, FaultRates: &rates}
	spec := areaSpec(t, "A1")
	res := RunArea(policy.OPT(), spec, opts)
	if len(res.Records) == 0 {
		t.Fatal("no records")
	}
	sawLoop, sawSalvage, sawInf := false, false, false
	for _, rec := range res.Records {
		got := roundTrip(t, rec)
		if got.HasLoop() {
			sawLoop = true
			if got.Analysis.Loops[0].Timeline != got.Timeline {
				t.Fatal("decoded loop does not alias the decoded record timeline")
			}
		}
		if got.Salvage != nil && !got.Salvage.Clean() {
			sawSalvage = true
		}
		for _, s := range got.Timeline.Steps {
			if !s.Evidence.HasSCellReport() {
				sawInf = true
			}
		}
	}
	if !sawLoop || !sawSalvage || !sawInf {
		t.Fatalf("fixture too tame: loop=%v salvage=%v inf=%v (raise rates/duration so the codec is exercised)",
			sawLoop, sawSalvage, sawInf)
	}
}

// TestCodecSyntheticEdgeCases pins the hazards the wire schema exists
// for, independent of what the simulator happens to produce.
func TestCodecSyntheticEdgeCases(t *testing.T) {
	tl := &trace.Timeline{
		Duration: 300 * time.Second,
		Steps: []trace.Step{
			{At: 0, Set: cell.Set{}, Evidence: trace.Evidence{WorstSCellRSRP: units.DBm(math.Inf(1))}},
			{At: time.Second,
				Set: cell.Set{MCG: &cell.Group{Primary: cell.Ref{PCI: 7, Channel: 387410},
					SCells: []cell.Ref{}}},
				Evidence: trace.Evidence{
					Kind:             trace.ReleaseKind(1),
					ReestCause:       "otherFailure",
					PendingMod:       &trace.SCellMod{Released: cell.Ref{PCI: 273, Channel: 387410}, Added: cell.Ref{PCI: 371, Channel: 387410}},
					UnmeasuredSCells: []cell.Ref{{PCI: 3, Channel: 1}},
					PoorSCells:       []cell.Ref{},
					WorstSCellRSRP:   units.DBm(-113.5),
					Reports:          9,
				}},
		},
	}
	recs := []*Record{
		{ // failure record: no timeline, zero analysis
			Op: "OPT", Area: "A1", LocIndex: 1, RunIndex: 2, Device: "d",
			Err: "injected test failure", Stack: "goroutine 1 [running]:\n...",
			FailKind: FailPanic, Attempts: 2,
		},
		{ // loop + empty-non-nil Subtypes + aliased timeline + salvage
			Op: "OPT", Area: "A1", Timeline: tl,
			Analysis: core.Analysis{
				Loops:    []*core.Loop{{Start: 0, CycleLen: 2, Reps: 3, End: 6, Form: core.Form(1), Timeline: tl}},
				Subtypes: []core.Subtype{core.Subtype(2)},
			},
			MeasCount: 17,
			Salvage: &sig.Salvage{EventsKept: 100, RecordsDropped: 2, LinesSkipped: 5,
				Errors: []*sig.ParseError{{Line: 3, Text: "garbled", Err: errors.New("missing mandatory field")}}},
			Attempts: 1,
		},
		{ // no loops: nil Loops but empty-non-nil Subtypes (Analyze's shape)
			Op: "OPV", Area: "A9", Timeline: &trace.Timeline{Duration: time.Minute},
			Analysis: core.Analysis{Subtypes: []core.Subtype{}},
			Attempts: 1,
		},
	}
	for i, rec := range recs {
		got := roundTrip(t, rec)
		if i == 1 && got.Analysis.Loops[0].Timeline != got.Timeline {
			t.Fatal("decoded loop must alias the decoded timeline pointer")
		}
	}
	// Distinctions that DeepEqual already proved, spelled out: nil vs
	// empty slices survive the trip.
	got := roundTrip(t, recs[2])
	if got.Analysis.Loops != nil {
		t.Fatal("nil Loops became non-nil")
	}
	if got.Analysis.Subtypes == nil {
		t.Fatal("empty Subtypes became nil")
	}
}

// TestDecodeRecordRejectsUnjournaledKinds: journals and sinks only
// hold completed or panicked runs. A record of any other kind (a
// cancelled run, the retired deadline kind, an unknown value) is
// rejected, not replayed: a cancelled record would stop sink delivery
// while the study reports success.
func TestDecodeRecordRejectsUnjournaledKinds(t *testing.T) {
	for _, k := range []FailureKind{2, FailCancelled, 9} {
		b, err := EncodeRecord(&Record{Op: "OPT", Area: "A1", Err: "aborted", FailKind: k, Attempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRecord(b); err == nil || !strings.Contains(err.Error(), "fail_kind") {
			t.Errorf("kind %v: DecodeRecord err = %v, want a fail_kind error", k, err)
		}
	}
}

// TestCodecRejectsForeignLoopTimeline: a loop that does not alias its
// record's timeline cannot be re-linked and must fail loudly rather
// than silently corrupt the study.
func TestCodecRejectsForeignLoopTimeline(t *testing.T) {
	tl := &trace.Timeline{Duration: time.Minute}
	other := &trace.Timeline{Duration: 2 * time.Minute}
	rec := &Record{Op: "OPT", Area: "A1", Timeline: tl,
		Analysis: core.Analysis{Loops: []*core.Loop{{Timeline: other}}, Subtypes: []core.Subtype{0}},
		Attempts: 1}
	if _, err := EncodeRecord(rec); err == nil {
		t.Fatal("EncodeRecord must reject a non-aliased loop timeline")
	}
}

// areaSpec fetches a named area spec.
func areaSpec(t *testing.T, id string) deploy.AreaSpec {
	t.Helper()
	spec, ok := deploy.AreaByID(id)
	if !ok {
		t.Fatalf("unknown area %s", id)
	}
	return spec
}
