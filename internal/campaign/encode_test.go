package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/mssn/loopscope/internal/racecheck"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

// oracleEncode is the record encoder appendRecord replaced: json.Marshal
// of the record's wire value.
func oracleEncode(rec *Record) ([]byte, error) {
	w, err := toWire(rec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// toWire maps a record onto its wire schema. The wire value shares the
// record's slices, so it is encoded, not kept.
func toWire(rec *Record) (*recordWire, error) {
	w := &recordWire{
		Op:        rec.Op,
		Area:      rec.Area,
		City:      rec.City,
		LocIndex:  rec.LocIndex,
		RunIndex:  rec.RunIndex,
		Device:    rec.Device,
		Arch:      rec.Arch,
		MeasCount: rec.MeasCount,
		Err:       rec.Err,
		Stack:     rec.Stack,
		FailKind:  rec.FailKind,
		Attempts:  rec.Attempts,
	}
	if tl := rec.Timeline; tl != nil {
		tw := &timelineWire{Duration: tl.Duration}
		if tl.Steps != nil {
			tw.Steps = make([]stepWire, len(tl.Steps))
			for i, s := range tl.Steps {
				tw.Steps[i] = stepWire{At: s.At, Set: s.Set, Evidence: encodeEvidence(s.Evidence)}
			}
		}
		w.Timeline = tw
	}
	if rec.Analysis.Loops != nil {
		w.Analysis.Loops = make([]*loopWire, len(rec.Analysis.Loops))
		for i, l := range rec.Analysis.Loops {
			if l.Timeline != rec.Timeline {
				return nil, fmt.Errorf("campaign: record %s/%s/%d/%d: loop %d does not alias the record timeline; codec cannot re-link it",
					rec.Op, rec.Area, rec.LocIndex, rec.RunIndex, i)
			}
			w.Analysis.Loops[i] = &loopWire{Start: l.Start, CycleLen: l.CycleLen, Reps: l.Reps, End: l.End, Form: l.Form}
		}
	}
	w.Analysis.Subtypes = rec.Analysis.Subtypes
	if sal := rec.Salvage; sal != nil {
		sw := &salvageWire{EventsKept: sal.EventsKept, RecordsDropped: sal.RecordsDropped, LinesSkipped: sal.LinesSkipped}
		if sal.Errors != nil {
			sw.Errors = make([]*parseErrWire, len(sal.Errors))
			for i, pe := range sal.Errors {
				sw.Errors[i] = &parseErrWire{Line: pe.Line, Text: pe.Text, Err: pe.Err.Error()}
			}
		}
		w.Salvage = sw
	}
	return w, nil
}

// encodeEvidence maps the +Inf sentinel to null.
func encodeEvidence(e trace.Evidence) evidenceWire {
	w := evidenceWire{
		Kind:             e.Kind,
		ReestCause:       e.ReestCause,
		SCGFailure:       e.SCGFailure,
		PendingMod:       e.PendingMod,
		Mod:              e.Mod,
		UnmeasuredSCells: e.UnmeasuredSCells,
		PoorSCells:       e.PoorSCells,
		HandoverFrom:     e.HandoverFrom,
		HandoverTo:       e.HandoverTo,
		Reports:          e.Reports,
	}
	if e.HasSCellReport() {
		v := e.WorstSCellRSRP.Float()
		w.WorstSCellRSRP = &v
	}
	return w
}

// requireOracleEncoding fails t unless appendRecord, appending to a
// prefix, and EncodeRecord both write the oracle's bytes for rec, or
// all three fail and appendRecord hands the prefix back as it was.
func requireOracleEncoding(t testing.TB, rec *Record) {
	t.Helper()
	const prefix = `{"p":`
	want, wantErr := oracleEncode(rec)
	got, err := appendRecord([]byte(prefix), rec)
	enc, encErr := EncodeRecord(rec)
	switch {
	case (err == nil) != (wantErr == nil) || (encErr == nil) != (wantErr == nil):
		t.Fatalf("appendRecord error %v, EncodeRecord error %v, oracle error %v", err, encErr, wantErr)
	case err != nil && string(got) != prefix:
		t.Fatalf("failed appendRecord returned %q, want the prefix %q", got, prefix)
	case err != nil:
	case !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("appendRecord wrote\n%s\noracle\n%s%s", got, prefix, want)
	case !bytes.Equal(enc, want):
		t.Fatalf("EncodeRecord wrote\n%s\noracle\n%s", enc, want)
	}
}

// FuzzEncodeRecord holds appendRecord and EncodeRecord to the oracle,
// json.Marshal of the wire value: equal bytes, or an error from all.
// The record is data decoded by DecodeRecord (an empty record when data
// does not decode), with s as its city and rsrp as its last step's
// worst_scell_rsrp, since JSON cannot carry invalid UTF-8, NaN or ±Inf.
// The seeds are the synthetic records, one with a panicked run's
// escaped stack, and the loop record with the strings, floats,
// integers and nil or empty members each encoder must spell alike.
func FuzzEncodeRecord(f *testing.F) {
	recs := syntheticRecords()
	recs[0].Err = "panic: <nil> & \u2028 \"quoted\""
	recs[0].Stack = "goroutine 1 [running]:\nmain.run(...)\n\t<autogenerated>:1 +0x1d\n"
	enc := make([][]byte, len(recs))
	for i, rec := range recs {
		b, err := oracleEncode(rec)
		if err != nil {
			f.Fatal(err)
		}
		enc[i] = b
		f.Add(b, rec.City, -113.5)
	}
	loop, noLoop := enc[1], enc[2]
	for _, s := range []string{
		"<script>&amp;</script>", "line\u2028sep\u2029", "bad\xff\xfeutf8\xc0\x80",
		"ctl\x00\x01\x08\x0c\x1f", "del\x7f", "tab\tnl\ncr\r\"q\"\\", "Zürich ünïcode", "~ !#$%'()*+,-./:;=?@[]^_`{|}",
	} {
		f.Add(loop, s, -113.5)
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 1e-7, 1e-6, 1e21,
		-1e21, 9.99e20, 5e-324, math.MaxFloat64, -123.456} {
		f.Add(loop, "", v)
	}
	for _, edit := range []struct {
		rec      []byte
		old, new string
	}{
		{loop, `"loc":0`, fmt.Sprintf(`"loc":%d`, math.MinInt)},
		{loop, `"run":0`, fmt.Sprintf(`"run":%d`, math.MaxInt)},
		{loop, `"meas_count":17`, fmt.Sprintf(`"meas_count":%d`, math.MinInt)},
		{loop, `"reports":9`, fmt.Sprintf(`"reports":%d`, math.MaxInt)},
		{loop, `"PCI":7`, fmt.Sprintf(`"PCI":%d`, math.MinInt)},
		{loop, `"duration":300000000000`, `"duration":-1`},
		{loop, `"at":1000000000`, fmt.Sprintf(`"at":%d`, math.MinInt64)},
		{loop, `"SCells":[]`, `"SCells":null`},
		{loop, `"poor_scells":[]`, `"poor_scells":null`},
		{loop, `"unmeasured_scells":[{"PCI":3,"Channel":1}]`, `"unmeasured_scells":[]`},
		{loop, `"errors":[{"line":3,"text":"garbled","err":"missing mandatory field"}]`, `"errors":null`},
		{loop, `"errors":[{"line":3,"text":"garbled","err":"missing mandatory field"}]`, `"errors":[]`},
		{noLoop, `"steps":null`, `"steps":[]`},
		{noLoop, `"loops":null`, `"loops":[]`},
		{noLoop, `"subtypes":""`, `"subtypes":null`},
	} {
		if !bytes.Contains(edit.rec, []byte(edit.old)) {
			f.Fatalf("seed edit %q finds nothing to replace", edit.old)
		}
		f.Add(bytes.Replace(edit.rec, []byte(edit.old), []byte(edit.new), 1), "", -113.5)
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, rsrp float64) {
		rec, err := DecodeRecord(data)
		if err != nil {
			rec = &Record{}
		}
		rec.City = s
		if tl := rec.Timeline; tl != nil && len(tl.Steps) > 0 {
			tl.Steps[len(tl.Steps)-1].Evidence.WorstSCellRSRP = units.DBm(rsrp)
		}
		requireOracleEncoding(t, rec)
	})
}

// TestEncodeRecordAllocatesOnce: EncodeRecord keeps json.Marshal's
// allocation profile, one allocation of the result's size, because it
// encodes into a recycled scratch buffer and returns a copy. The
// records are the synthetic ones whose strings need no escape; each
// string json.Marshal quotes costs that call's allocations on top.
func TestEncodeRecordAllocatesOnce(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	for i, rec := range syntheticRecords()[1:] {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := EncodeRecord(rec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("record %d: EncodeRecord allocates %v times, want 1", i, allocs)
		}
	}
}
