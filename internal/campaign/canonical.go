package campaign

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/trace"
)

// This file reads a record's canonical form in one pass over its bytes.
// The canonical form is exactly what json.Marshal writes for recordWire,
// so every journal and sink line this version writes: members in struct
// order, no whitespace, null kept apart from [] and "", and integer,
// float and string tokens as json.Marshal spells them. decodeCanonical
// fills the recordWire json.Unmarshal would fill from those bytes, and
// gives up at the first byte that is not canonical; DecodeRecord then
// decodes the whole record with json.Unmarshal. So the input alone
// picks the path, and FuzzDecodeRecord holds the two to one result.

// decodeCanonical decodes data, a record in canonical form, into w,
// which must be zero. It reports whether data was canonical; if not, w
// holds a partial decode to throw away.
func decodeCanonical(data []byte, w *recordWire) bool {
	d := &wireDecoder{b: data, ok: true}
	w.Op = d.str(`{"op":`)
	w.Area = d.str(`,"area":`)
	w.City = d.str(`,"city":`)
	w.LocIndex = d.int(`,"loc":`)
	w.RunIndex = d.int(`,"run":`)
	w.Device = d.str(`,"device":`)
	w.Arch = deploy.Archetype(d.uint8(`,"arch":`))
	if !d.null(`,"timeline":`) {
		w.Timeline = &timelineWire{
			Steps:    array(d, `{"steps":`, (*wireDecoder).step),
			Duration: d.duration(`,"duration":`),
		}
		d.lit(`}`)
	}
	w.Analysis.Loops = array(d, `,"analysis":{"loops":`, (*wireDecoder).loop)
	w.Analysis.Subtypes = d.subtypes(`,"subtypes":`)
	w.MeasCount = d.int(`},"meas_count":`)
	if !d.null(`,"salvage":`) {
		w.Salvage = &salvageWire{
			EventsKept:     d.int(`{"events_kept":`),
			RecordsDropped: d.int(`,"records_dropped":`),
			LinesSkipped:   d.int(`,"lines_skipped":`),
			Errors:         array(d, `,"errors":`, (*wireDecoder).parseErr),
		}
		d.lit(`}`)
	}
	w.Err = d.str(`,"err":`)
	w.Stack = d.str(`,"stack":`)
	w.FailKind = FailureKind(d.uint8(`,"fail_kind":`))
	w.Attempts = d.int(`,"attempts":`)
	d.lit(`}`)
	return d.ok && d.i == len(d.b)
}

// wireDecoder reads canonical tokens from b at i. Each reader first
// consumes the literal before its value (a member's name with the
// punctuation before it, or "" for an array element). At the first byte
// that is not what the canonical form holds there, a reader clears ok
// and returns the zero value; once ok is clear, no reader reads on.
type wireDecoder struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes the literal s.
func (d *wireDecoder) lit(s string) {
	if d.ok && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return
	}
	d.ok = false
}

// next consumes the byte c if it comes next.
func (d *wireDecoder) next(c byte) bool {
	if d.ok && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes key, then a null if one comes next.
func (d *wireDecoder) null(key string) bool {
	d.lit(key)
	if d.ok && len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// str reads a string token. One of printable ASCII without escapes is
// copied as it stands. Any other (escapes such as a stack's newlines or
// the <, > and & json.Marshal escapes, bytes past ASCII) is unquoted by
// json.Unmarshal on its own, as decoding the whole record would.
func (d *wireDecoder) str(key string) string {
	d.lit(key)
	if !d.next('"') {
		d.ok = false
		return ""
	}
	start, plain := d.i, true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			if plain {
				return string(d.b[start:j])
			}
			var s string
			if json.Unmarshal(d.b[start-1:d.i], &s) != nil {
				d.ok = false
			}
			return s
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot end the token
		case c < 0x20 || c >= 0x7f:
			plain = false
		}
	}
	d.ok = false
	return ""
}

// integer reads an integer token as json.Marshal writes one (an
// optional minus sign, then digits with no leading zero, so never -0)
// whose value is in [lo, hi]. Any other number, out of range ones
// included, is for json.Unmarshal to accept or refuse.
func (d *wireDecoder) integer(key string, lo, hi int64) int64 {
	d.lit(key)
	if !d.ok {
		return 0
	}
	neg := d.next('-')
	start := d.i
	var mag uint64
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 && d.i-start < 19 {
		mag = mag*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	n := d.i - start
	switch {
	// No digit, a leading zero, -0, or a 20th digit.
	case n == 0 || (d.b[start] == '0' && (n > 1 || neg)) || (d.i < len(d.b) && d.b[d.i]-'0' <= 9):
		d.ok = false
	case !neg && mag <= uint64(hi):
		return int64(mag)
	case neg && lo < 0 && mag-1 <= uint64(-(lo+1)):
		return -int64(mag-1) - 1
	default:
		d.ok = false
	}
	return 0
}

func (d *wireDecoder) int(key string) int { return int(d.integer(key, math.MinInt, math.MaxInt)) }

func (d *wireDecoder) uint8(key string) uint8 { return uint8(d.integer(key, 0, math.MaxUint8)) }

func (d *wireDecoder) duration(key string) time.Duration {
	return time.Duration(d.integer(key, math.MinInt64, math.MaxInt64))
}

// float reads a number token as encoding/json does: the JSON number
// grammar, then strconv.ParseFloat of its bytes, which refuses a value
// out of float64's range as encoding/json does.
func (d *wireDecoder) float() float64 {
	start := d.i
	d.next('-')
	switch {
	case d.next('0'):
	case d.ok && d.i < len(d.b) && d.b[d.i]-'1' <= 8:
		d.digits()
	default:
		d.ok = false
	}
	if d.next('.') && d.digits() == 0 {
		d.ok = false
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			d.ok = false
		}
	}
	if !d.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.ok = false
	}
	return f
}

// digits consumes a run of decimal digits and returns its length.
func (d *wireDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	return d.i - start
}

// array reads null as a nil slice, [] as an empty one, and otherwise an
// array of elements read by elem.
func array[T any](d *wireDecoder, key string, elem func(*wireDecoder, string) T) []T {
	if d.null(key) {
		return nil
	}
	d.lit("[")
	s := []T{}
	if d.next(']') {
		return s
	}
	for d.ok {
		s = append(s, elem(d, ""))
		if !d.next(',') {
			d.lit("]")
			break
		}
	}
	return s
}

func (d *wireDecoder) step(key string) stepWire {
	d.lit(key)
	s := stepWire{At: d.duration(`{"at":`)}
	s.Set.MCG = d.group(`,"set":{"MCG":`)
	s.Set.SCG = d.group(`,"SCG":`)
	e := &s.Evidence
	e.Kind = trace.ReleaseKind(d.uint8(`},"evidence":{"kind":`))
	e.ReestCause = rrc.ReestCause(d.str(`,"reest_cause":`))
	e.SCGFailure = rrc.SCGFailureCause(d.str(`,"scg_failure":`))
	e.PendingMod = d.mod(`,"pending_mod":`)
	e.Mod = d.mod(`,"mod":`)
	e.UnmeasuredSCells = array(d, `,"unmeasured_scells":`, (*wireDecoder).ref)
	e.PoorSCells = array(d, `,"poor_scells":`, (*wireDecoder).ref)
	if !d.null(`,"worst_scell_rsrp":`) {
		v := d.float()
		e.WorstSCellRSRP = &v
	}
	e.HandoverFrom = d.ref(`,"handover_from":`)
	e.HandoverTo = d.ref(`,"handover_to":`)
	e.Reports = d.int(`,"reports":`)
	d.lit(`}}`)
	return s
}

func (d *wireDecoder) group(key string) *cell.Group {
	if d.null(key) {
		return nil
	}
	g := &cell.Group{
		RAT:     band.RAT(d.uint8(`{"RAT":`)),
		Primary: d.ref(`,"Primary":`),
		SCells:  array(d, `,"SCells":`, (*wireDecoder).ref),
	}
	d.lit(`}`)
	return g
}

func (d *wireDecoder) ref(key string) cell.Ref {
	d.lit(key)
	r := cell.Ref{PCI: d.int(`{"PCI":`), Channel: d.int(`,"Channel":`)}
	d.lit(`}`)
	return r
}

func (d *wireDecoder) mod(key string) *trace.SCellMod {
	if d.null(key) {
		return nil
	}
	m := &trace.SCellMod{Released: d.ref(`{"Released":`), Added: d.ref(`,"Added":`)}
	d.lit(`}`)
	return m
}

// loop reads one loop; a null element is not canonical.
func (d *wireDecoder) loop(key string) *loopWire {
	d.lit(key)
	l := &loopWire{
		Start:    d.int(`{"start":`),
		CycleLen: d.int(`,"cycle_len":`),
		Reps:     d.int(`,"reps":`),
		End:      d.int(`,"end":`),
		Form:     core.Form(d.uint8(`,"form":`)),
	}
	d.lit(`}`)
	return l
}

// parseErr reads one salvage error; a null element is not canonical.
func (d *wireDecoder) parseErr(key string) *parseErrWire {
	d.lit(key)
	pe := &parseErrWire{Line: d.int(`{"line":`), Text: d.str(`,"text":`), Err: d.str(`,"err":`)}
	d.lit(`}`)
	return pe
}

// subtypes reads the sub-types as json.Marshal writes a slice of a
// byte-sized type: null, or a standard base64 string ("" when empty),
// decoded as encoding/json decodes one.
func (d *wireDecoder) subtypes(key string) []core.Subtype {
	if d.null(key) {
		return nil
	}
	raw, err := base64.StdEncoding.DecodeString(d.str(""))
	if !d.ok || err != nil {
		d.ok = false
		return nil
	}
	out := make([]core.Subtype, len(raw))
	for i, v := range raw {
		out[i] = core.Subtype(v)
	}
	return out
}
