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
	res := runArea(t, spec, opts)
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

// Sinks for TestLoopAccessorsDoNotAllocate, so the reads are not
// optimized away.
var (
	keysSink   []string
	fpSink     string
	cyclesSink []core.CycleMetrics
)

// TestLoopAccessorsDoNotAllocate: a loop keeps the cycle keys,
// fingerprint and cycles computed when it was made, by the detector on
// a run (FinishAnalysis) or once on decoding (DecodeRecord), so reading
// them allocates nothing.
func TestLoopAccessorsDoNotAllocate(t *testing.T) {
	res := runArea(t, areaSpec(t, "A1"), Options{Seed: 42, Duration: 120 * time.Second, RunScale: 0.1})
	var rec *Record
	for _, r := range res.Records {
		if r.HasLoop() {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatal("no run looped")
	}
	for _, c := range []struct {
		name string
		loop *core.Loop
	}{
		{"FinishAnalysis", rec.Analysis.Loops[0]},
		{"DecodeRecord", roundTrip(t, rec).Analysis.Loops[0]},
	} {
		l := c.loop
		if n := testing.AllocsPerRun(100, func() {
			keysSink, fpSink, cyclesSink = l.CycleKeys(), l.Fingerprint(), l.Cycles()
		}); n != 0 {
			t.Errorf("%s loop: CycleKeys, Fingerprint and Cycles make %v allocations per read, want 0", c.name, n)
		}
		if len(keysSink) != l.CycleLen || len(cyclesSink) != l.Reps || fpSink == "" {
			t.Errorf("%s loop: %d keys, %d cycles, fingerprint %q for a cycle of %d ×%d",
				c.name, len(keysSink), len(cyclesSink), fpSink, l.CycleLen, l.Reps)
		}
	}
}

// syntheticRecords returns records carrying the hazards the wire schema
// exists for, independent of what the simulator happens to produce: a
// failure record, a loop with salvage and sentinel evidence, and a
// loop-free analysis with empty-non-nil Subtypes.
func syntheticRecords() []*Record {
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
	return []*Record{
		{ // failure record: no timeline, zero analysis
			Op: "OPT", Area: "A1", LocIndex: 1, RunIndex: 2, Device: "d",
			Err: "injected test failure", Stack: "goroutine 1 [running]:\n...",
			FailKind: FailPanic, Attempts: 2,
		},
		{ // loop + empty-non-nil Subtypes + aliased timeline + salvage
			Op: "OPT", Area: "A1", Timeline: tl,
			Analysis: core.Analysis{
				Loops:    []*core.Loop{core.LoopIn(tl, 0, 1, 2, 2, core.Form(1))},
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
}

// TestCodecSyntheticEdgeCases pins the hazards the wire schema exists
// for, independent of what the simulator happens to produce.
func TestCodecSyntheticEdgeCases(t *testing.T) {
	recs := syntheticRecords()
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

// TestDecodeRecordRejectsLoopsOutsideTimeline: a record whose loops do
// not fit its timeline, or whose sub-types do not pair with its loops,
// is rejected with an error naming the field, instead of being accepted
// and panicking whatever reads the loop later.
func TestDecodeRecordRejectsLoopsOutsideTimeline(t *testing.T) {
	good := syntheticRecords()[1] // a 2-step timeline with one loop
	for _, c := range []struct {
		name string
		edit func(l *core.Loop, a *core.Analysis)
		want string
	}{
		{"start past the timeline", func(l *core.Loop, _ *core.Analysis) { l.Start, l.End = 100000, 100000 }, "start 100000"},
		{"negative start", func(l *core.Loop, _ *core.Analysis) { l.Start = -1 }, "start -1"},
		{"end before start", func(l *core.Loop, _ *core.Analysis) { l.Start, l.End = 1, 0 }, "end 0"},
		{"zero cycle", func(l *core.Loop, _ *core.Analysis) { l.CycleLen = 0 }, "cycle_len 0"},
		{"no repetition", func(l *core.Loop, _ *core.Analysis) { l.Reps = 0 }, "0 repetitions"},
		{"too many repetitions", func(l *core.Loop, _ *core.Analysis) { l.Reps = 3 }, "3 repetitions"},
		{"overflowing repetitions", func(l *core.Loop, _ *core.Analysis) { l.CycleLen, l.Reps = 1<<62, 4 }, "4 repetitions"},
		{"missing subtype", func(_ *core.Loop, a *core.Analysis) { a.Subtypes = nil }, "0 subtypes for 1 loops"},
	} {
		rec := *good
		loop := *good.Analysis.Loops[0]
		rec.Analysis = core.Analysis{Loops: []*core.Loop{&loop}, Subtypes: good.Analysis.Subtypes}
		c.edit(&loop, &rec.Analysis)
		b, err := EncodeRecord(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRecord(b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeRecord err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	for _, data := range []string{
		`{"analysis":{"loops":[null],"subtypes":[0]}}`,
		`{"salvage":{"errors":[null]}}`,
	} {
		if _, err := DecodeRecord([]byte(data)); err == nil || !strings.Contains(err.Error(), "is null") {
			t.Errorf("%s: DecodeRecord err = %v, want a null-member error", data, err)
		}
	}
}

// FuzzDecodeRecord: decoding never panics, every accepted record
// round-trips deep-equal through EncodeRecord, and every accessor the
// experiments call on a loop runs on every accepted loop.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range syntheticRecords() {
		b, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"timeline":{"steps":[{"at":0},{"at":5}],"duration":9},` +
		`"analysis":{"loops":[{"start":100000,"cycle_len":1,"reps":2,"end":2}],"subtypes":[0]}}`))
	f.Add([]byte(`{"analysis":{"loops":[null],"subtypes":[0]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		b, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("re-encoded record is rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("record did not round-trip:\n first %+v\nsecond %+v", rec, again)
		}
		for _, l := range rec.Analysis.Loops {
			l.Cycles()
			l.CycleKeys()
			l.Fingerprint()
			l.OffTransition()
			l.PreOffState()
		}
	})
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
