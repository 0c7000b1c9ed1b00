//loopvet:hot
package campaign

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
)

// This file writes a record's canonical form straight from the Record,
// with no wire value built and no reflection. The canonical form is
// what json.Marshal writes for the record's recordWire, the form
// decodeCanonical reads: members in struct order, no whitespace, null
// kept apart from [] and "", and every token spelled as json.Marshal
// spells it. FuzzEncodeRecord holds appendRecord to json.Marshal of
// the wire value, which the tests keep as the oracle.
//
// Each appender below appends the literal before its value (a member's
// name with the punctuation before it, or the [ or , before an array
// element), then the value.

// appendRecord appends rec's canonical form to b and returns the
// extended slice. A record the wire form cannot carry (see
// checkEncodable) is an error, and b comes back as it was.
func appendRecord(b []byte, rec *Record) ([]byte, error) {
	if err := checkEncodable(rec); err != nil {
		return b, err
	}
	b = appendString(b, `{"op":`, rec.Op)
	b = appendString(b, `,"area":`, rec.Area)
	b = appendString(b, `,"city":`, rec.City)
	b = appendInt(b, `,"loc":`, rec.LocIndex)
	b = appendInt(b, `,"run":`, rec.RunIndex)
	b = appendString(b, `,"device":`, rec.Device)
	b = appendUint8(b, `,"arch":`, uint8(rec.Arch))
	if tl := rec.Timeline; tl == nil {
		b = append(b, `,"timeline":null`...)
	} else {
		b = appendArray(b, `,"timeline":{"steps":`, tl.Steps, appendStep)
		b = appendInt64(b, `,"duration":`, int64(tl.Duration))
		b = append(b, '}')
	}
	b = appendArray(b, `,"analysis":{"loops":`, rec.Analysis.Loops, appendLoop)
	b = appendSubtypes(b, `,"subtypes":`, rec.Analysis.Subtypes)
	b = appendInt(b, `},"meas_count":`, rec.MeasCount)
	if sal := rec.Salvage; sal == nil {
		b = append(b, `,"salvage":null`...)
	} else {
		b = appendInt(b, `,"salvage":{"events_kept":`, sal.EventsKept)
		b = appendInt(b, `,"records_dropped":`, sal.RecordsDropped)
		b = appendInt(b, `,"lines_skipped":`, sal.LinesSkipped)
		b = appendArray(b, `,"errors":`, sal.Errors, appendParseErr)
		b = append(b, '}')
	}
	b = appendString(b, `,"err":`, rec.Err)
	b = appendString(b, `,"stack":`, rec.Stack)
	b = appendUint8(b, `,"fail_kind":`, uint8(rec.FailKind))
	b = appendInt(b, `,"attempts":`, rec.Attempts)
	return append(b, '}'), nil
}

// checkEncodable refuses what the wire form cannot carry: a loop that
// does not alias the record's timeline, which DecodeRecord could not
// re-link, and a worst_scell_rsrp of NaN or -Inf, which json.Marshal
// refuses (+Inf is the no-report sentinel, written as null).
func checkEncodable(rec *Record) error {
	for i, l := range rec.Analysis.Loops {
		if l.Timeline != rec.Timeline {
			return fmt.Errorf("campaign: record %s/%s/%d/%d: loop %d does not alias the record timeline; codec cannot re-link it",
				rec.Op, rec.Area, rec.LocIndex, rec.RunIndex, i)
		}
	}
	if rec.Timeline == nil {
		return nil
	}
	for i := range rec.Timeline.Steps {
		if f := rec.Timeline.Steps[i].Evidence.WorstSCellRSRP.Float(); math.IsNaN(f) || math.IsInf(f, -1) {
			return fmt.Errorf("campaign: record %s/%s/%d/%d: step %d: worst_scell_rsrp %v has no JSON form",
				rec.Op, rec.Area, rec.LocIndex, rec.RunIndex, i, f)
		}
	}
	return nil
}

// journaled is a record as a checkpoint journal's payload. The journal
// writes what AppendJSON appends straight into its line, so a journaled
// record is encoded once and never passes through encoding/json.
type journaled Record

// AppendJSON appends the record's canonical form to b.
func (r *journaled) AppendJSON(b []byte) ([]byte, error) { return appendRecord(b, (*Record)(r)) }

// appendString appends a string token. One of printable ASCII with no
// ", \, <, > or & stands as it is. json.Marshal quotes any other (a
// stack's newlines, the <, > and & it escapes, control bytes, bytes
// past ASCII, invalid UTF-8) on its own, as it would within the wire
// value; it never fails on a string.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendInt64(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendInt(b []byte, key string, v int) []byte { return appendInt64(b, key, int64(v)) }

func appendUint8(b []byte, key string, v uint8) []byte {
	return strconv.AppendUint(append(b, key...), uint64(v), 10)
}

// appendArray appends a nil slice as null, an empty one as [], and
// otherwise the elements appended by elem.
func appendArray[T any](b []byte, key string, s []T, elem func([]byte, string, T) []byte) []byte {
	b = append(b, key...)
	switch {
	case s == nil:
		return append(b, "null"...)
	case len(s) == 0:
		return append(b, "[]"...)
	}
	sep := "["
	for _, v := range s {
		b = elem(b, sep, v)
		sep = ","
	}
	return append(b, ']')
}

func appendStep(b []byte, key string, s trace.Step) []byte {
	b = append(b, key...)
	b = appendInt64(b, `{"at":`, int64(s.At))
	b = appendGroup(b, `,"set":{"MCG":`, s.Set.MCG)
	b = appendGroup(b, `,"SCG":`, s.Set.SCG)
	ev := &s.Evidence
	b = appendUint8(b, `},"evidence":{"kind":`, uint8(ev.Kind))
	b = appendString(b, `,"reest_cause":`, string(ev.ReestCause))
	b = appendString(b, `,"scg_failure":`, string(ev.SCGFailure))
	b = appendMod(b, `,"pending_mod":`, ev.PendingMod)
	b = appendMod(b, `,"mod":`, ev.Mod)
	b = appendArray(b, `,"unmeasured_scells":`, ev.UnmeasuredSCells, appendRef)
	b = appendArray(b, `,"poor_scells":`, ev.PoorSCells, appendRef)
	b = append(b, `,"worst_scell_rsrp":`...)
	if ev.HasSCellReport() {
		b = appendFloat(b, ev.WorstSCellRSRP.Float())
	} else {
		b = append(b, "null"...)
	}
	b = appendRef(b, `,"handover_from":`, ev.HandoverFrom)
	b = appendRef(b, `,"handover_to":`, ev.HandoverTo)
	b = appendInt(b, `,"reports":`, ev.Reports)
	return append(b, `}}`...)
}

// appendFloat appends f, a finite float, as encoding/json writes a
// float64: the shortest decimal that reads back as f, in exponent form
// below 1e-6 and from 1e21 on, with the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b
}

func appendGroup(b []byte, key string, g *cell.Group) []byte {
	b = append(b, key...)
	if g == nil {
		return append(b, "null"...)
	}
	b = appendUint8(b, `{"RAT":`, uint8(g.RAT))
	b = appendRef(b, `,"Primary":`, g.Primary)
	b = appendArray(b, `,"SCells":`, g.SCells, appendRef)
	return append(b, '}')
}

func appendRef(b []byte, key string, r cell.Ref) []byte {
	b = append(b, key...)
	b = appendInt(b, `{"PCI":`, r.PCI)
	b = appendInt(b, `,"Channel":`, r.Channel)
	return append(b, '}')
}

func appendMod(b []byte, key string, m *trace.SCellMod) []byte {
	b = append(b, key...)
	if m == nil {
		return append(b, "null"...)
	}
	b = appendRef(b, `{"Released":`, m.Released)
	b = appendRef(b, `,"Added":`, m.Added)
	return append(b, '}')
}

// appendLoop appends a loop's position and form. Its timeline is the
// record's (checkEncodable checked), and the rest derives from it.
func appendLoop(b []byte, key string, l *core.Loop) []byte {
	b = append(b, key...)
	b = appendInt(b, `{"start":`, l.Start)
	b = appendInt(b, `,"cycle_len":`, l.CycleLen)
	b = appendInt(b, `,"reps":`, l.Reps)
	b = appendInt(b, `,"end":`, l.End)
	b = appendUint8(b, `,"form":`, uint8(l.Form))
	return append(b, '}')
}

// appendParseErr appends a salvage error with its cause flattened to
// the message, which DecodeRecord rebuilds with errors.New.
func appendParseErr(b []byte, key string, pe *sig.ParseError) []byte {
	b = append(b, key...)
	b = appendInt(b, `{"line":`, pe.Line)
	b = appendString(b, `,"text":`, pe.Text)
	b = appendString(b, `,"err":`, pe.Err.Error())
	return append(b, '}')
}

// appendSubtypes appends the sub-types as json.Marshal writes a slice
// of a byte-sized type: null, or a standard base64 string ("" when
// empty). A core.Subtype is a uint8, so the slice is its own bytes.
func appendSubtypes(b []byte, key string, s []core.Subtype) []byte {
	b = append(b, key...)
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, unsafe.Slice((*byte)(unsafe.SliceData(s)), len(s)))
	return append(b, '"')
}
