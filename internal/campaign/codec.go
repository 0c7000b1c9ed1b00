package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/units"
)

// This file is the Record wire codec behind checkpoint journals and
// JSONL sinks. It exists because a naive json.Marshal of Record cannot
// round-trip the study: Evidence.WorstSCellRSRP holds a +Inf sentinel
// (unencodable in JSON), sig.ParseError carries an error interface,
// nil and empty slices are semantically distinct across the analysis
// structs, and core.Loop aliases the record's own Timeline. The wire
// schema spells each of those out so that DecodeRecord(EncodeRecord(r))
// is reflect.DeepEqual to r — the property the crash-recovery byte-
// identity guarantee stands on (tested in codec_test.go and pinned by
// the kill-and-resume tests in crash_test.go).

type recordWire struct {
	Op        string           `json:"op"`
	Area      string           `json:"area"`
	City      string           `json:"city"`
	LocIndex  int              `json:"loc"`
	RunIndex  int              `json:"run"`
	Device    string           `json:"device"`
	Arch      deploy.Archetype `json:"arch"`
	Timeline  *timelineWire    `json:"timeline"`
	Analysis  analysisWire     `json:"analysis"`
	MeasCount int              `json:"meas_count"`
	Salvage   *salvageWire     `json:"salvage"`
	Err       string           `json:"err"`
	Stack     string           `json:"stack"`
	FailKind  FailureKind      `json:"fail_kind"`
	Attempts  int              `json:"attempts"`
}

type timelineWire struct {
	Steps    []stepWire    `json:"steps"`
	Duration time.Duration `json:"duration"`
}

type stepWire struct {
	At       time.Duration `json:"at"`
	Set      cell.Set      `json:"set"`
	Evidence evidenceWire  `json:"evidence"`
}

// evidenceWire mirrors trace.Evidence; WorstSCellRSRP becomes a
// nullable number with null standing for the +Inf no-report sentinel.
type evidenceWire struct {
	Kind             trace.ReleaseKind   `json:"kind"`
	ReestCause       rrc.ReestCause      `json:"reest_cause"`
	SCGFailure       rrc.SCGFailureCause `json:"scg_failure"`
	PendingMod       *trace.SCellMod     `json:"pending_mod"`
	Mod              *trace.SCellMod     `json:"mod"`
	UnmeasuredSCells []cell.Ref          `json:"unmeasured_scells"`
	PoorSCells       []cell.Ref          `json:"poor_scells"`
	WorstSCellRSRP   *float64            `json:"worst_scell_rsrp"`
	HandoverFrom     cell.Ref            `json:"handover_from"`
	HandoverTo       cell.Ref            `json:"handover_to"`
	Reports          int                 `json:"reports"`
}

type analysisWire struct {
	Loops    []*loopWire    `json:"loops"`
	Subtypes []core.Subtype `json:"subtypes"`
}

// loopWire mirrors core.Loop without its Timeline and the fields it
// derives from it: every campaign loop aliases its record's timeline,
// so the pointer is re-established on decode, and the cycle keys,
// fingerprint and per-cycle metrics derived again, instead of
// serializing the steps twice.
type loopWire struct {
	Start    int       `json:"start"`
	CycleLen int       `json:"cycle_len"`
	Reps     int       `json:"reps"`
	End      int       `json:"end"`
	Form     core.Form `json:"form"`
}

type salvageWire struct {
	EventsKept     int             `json:"events_kept"`
	RecordsDropped int             `json:"records_dropped"`
	LinesSkipped   int             `json:"lines_skipped"`
	Errors         []*parseErrWire `json:"errors"`
}

// parseErrWire flattens sig.ParseError's error interface to its
// message; DecodeRecord rebuilds it with errors.New, which compares
// DeepEqual to the parser's own fmt.Errorf/errors.New values.
type parseErrWire struct {
	Line int    `json:"line"`
	Text string `json:"text"`
	Err  string `json:"err"`
}

// EncodeRecord marshals one record into its canonical wire form: the
// json.Marshal of the record's wire value. The engine's checkpoint
// journal encodes that same value itself, so a journaled record is
// encoded once; TestJournalHoldsEncodeRecord holds the journal's
// payloads to EncodeRecord's bytes.
func EncodeRecord(rec *Record) ([]byte, error) {
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

// DecodeRecord is EncodeRecord's inverse; the decoded record is
// reflect.DeepEqual to the encoded one. Each loop derives its cycle
// keys, fingerprint and per-cycle metrics from the decoded timeline
// once, through core.LoopIn; on a timeline trace.Builder made they
// equal what the stream detector computed (FuzzStreamDetectParity).
// Journals and sinks only ever hold completed or panicked runs, so any
// other failure kind is an error, and so is an analysis that does not
// fit its timeline (see checkAnalysis). Members this version no longer
// has (the "speeds" of older records) are ignored.
func DecodeRecord(data []byte) (*Record, error) {
	var w recordWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("campaign: decoding record: %w", err)
	}
	if w.FailKind != FailNone && w.FailKind != FailPanic {
		return nil, fmt.Errorf("campaign: decoding record: fail_kind %d (%v): journals and sinks hold only completed or panicked runs",
			uint8(w.FailKind), w.FailKind)
	}
	if err := checkAnalysis(&w); err != nil {
		return nil, fmt.Errorf("campaign: decoding record: %w", err)
	}
	rec := &Record{
		Op:        w.Op,
		Area:      w.Area,
		City:      w.City,
		LocIndex:  w.LocIndex,
		RunIndex:  w.RunIndex,
		Device:    w.Device,
		Arch:      w.Arch,
		MeasCount: w.MeasCount,
		Err:       w.Err,
		Stack:     w.Stack,
		FailKind:  w.FailKind,
		Attempts:  w.Attempts,
	}
	if tw := w.Timeline; tw != nil {
		tl := &trace.Timeline{Duration: tw.Duration}
		if tw.Steps != nil {
			tl.Steps = make([]trace.Step, len(tw.Steps))
			for i, s := range tw.Steps {
				tl.Steps[i] = trace.Step{At: s.At, Set: s.Set, Evidence: decodeEvidence(s.Evidence)}
			}
		}
		rec.Timeline = tl
	}
	if w.Analysis.Loops != nil {
		rec.Analysis.Loops = make([]*core.Loop, len(w.Analysis.Loops))
		for i, l := range w.Analysis.Loops {
			rec.Analysis.Loops[i] = core.LoopIn(rec.Timeline, l.Start, l.CycleLen, l.Reps, l.End, l.Form)
		}
	}
	rec.Analysis.Subtypes = w.Analysis.Subtypes
	if sw := w.Salvage; sw != nil {
		sal := &sig.Salvage{EventsKept: sw.EventsKept, RecordsDropped: sw.RecordsDropped, LinesSkipped: sw.LinesSkipped}
		if sw.Errors != nil {
			sal.Errors = make([]*sig.ParseError, len(sw.Errors))
			for i, pe := range sw.Errors {
				if pe == nil {
					return nil, fmt.Errorf("campaign: decoding record: salvage.errors[%d] is null", i)
				}
				sal.Errors[i] = &sig.ParseError{Line: pe.Line, Text: pe.Text, Err: errors.New(pe.Err)}
			}
		}
		rec.Salvage = sal
	}
	return rec, nil
}

// checkAnalysis rejects loops core.LoopIn cannot derive:
// each loop must lie inside the record's timeline with at least one
// whole cycle (0 ≤ Start ≤ End ≤ len(Steps), CycleLen ≥ 1 and
// 1 ≤ Reps ≤ (len(Steps)−Start)/CycleLen), and the analysis must carry
// one sub-type per loop. A journal line's checksum proves only that
// some writer wrote it; a hand-edited journal, one from a buggy build
// or a sink file read back is outside input and must fail here rather
// than panic LoopIn or the experiments that read its loops.
func checkAnalysis(w *recordWire) error {
	steps := 0
	if w.Timeline != nil {
		steps = len(w.Timeline.Steps)
	}
	for i, l := range w.Analysis.Loops {
		switch {
		case l == nil:
			return fmt.Errorf("analysis.loops[%d] is null", i)
		case l.Start < 0 || l.Start > l.End || l.End > steps:
			return fmt.Errorf("analysis.loops[%d]: start %d and end %d do not lie in the %d-step timeline", i, l.Start, l.End, steps)
		case l.CycleLen < 1:
			return fmt.Errorf("analysis.loops[%d]: cycle_len %d is not positive", i, l.CycleLen)
		case l.Reps < 1 || l.Reps > (steps-l.Start)/l.CycleLen:
			return fmt.Errorf("analysis.loops[%d]: %d repetitions of %d steps from step %d do not fit the %d-step timeline",
				i, l.Reps, l.CycleLen, l.Start, steps)
		}
	}
	if len(w.Analysis.Subtypes) != len(w.Analysis.Loops) {
		return fmt.Errorf("analysis: %d subtypes for %d loops", len(w.Analysis.Subtypes), len(w.Analysis.Loops))
	}
	return nil
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

// decodeEvidence restores the +Inf sentinel from null.
func decodeEvidence(w evidenceWire) trace.Evidence {
	e := trace.Evidence{
		Kind:             w.Kind,
		ReestCause:       w.ReestCause,
		SCGFailure:       w.SCGFailure,
		PendingMod:       w.PendingMod,
		Mod:              w.Mod,
		UnmeasuredSCells: w.UnmeasuredSCells,
		PoorSCells:       w.PoorSCells,
		HandoverFrom:     w.HandoverFrom,
		HandoverTo:       w.HandoverTo,
		Reports:          w.Reports,
		WorstSCellRSRP:   units.DBm(math.Inf(1)),
	}
	if w.WorstSCellRSRP != nil {
		e.WorstSCellRSRP = units.DBm(*w.WorstSCellRSRP)
	}
	return e
}
