package sig

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/rrc"
)

// Sink consumes capture events one at a time. *Log collects them in
// memory; *Emitter renders them as capture text; a trace.Builder folds
// them into a timeline. The simulator and ParseTo both write to a
// Sink, which is what lets one analysis pipeline take its events from
// either.
//
// A measurement report's Entries are lent to Append only for the
// length of the call, the way bufio.Scanner.Bytes lends its line: both
// producers refill one entries buffer for every report. A sink that
// keeps entries past Append copies them, as *Log does. Every other
// part of a message, Reconfig's slices and pointers included, belongs
// to the sink and may be kept.
type Sink interface {
	Append(at time.Duration, m rrc.Message)
}

var _ Sink = (*Log)(nil)
var _ Sink = (*Emitter)(nil)

// Emitter renders events one at a time in the NSG-style text format.
// The byte stream produced by a sequence of Emit calls is identical to
// Log.WriteTo over the same events, so a streamed capture parses to the
// same Log as a materialized one.
//
// Write errors are sticky: once a write fails, further events are
// dropped and the first error is reported by Emit, Flush and Close.
// Emitters are pooled; use NewEmitter and Close (not just Flush) so the
// per-run buffers are reused across runs.
type Emitter struct {
	bw  *bufio.Writer
	buf []byte // per-event scratch, reused across Emit calls
	n   int64
	err error
}

// emitterPool recycles the per-run emit buffers (the bufio window and
// the per-event scratch); at campaign scale these are the dominant
// short-lived allocations of the emit side.
var emitterPool = sync.Pool{
	New: func() any {
		return &Emitter{
			bw:  bufio.NewWriterSize(io.Discard, 32*1024),
			buf: make([]byte, 0, 1024),
		}
	},
}

// NewEmitter returns a pooled emitter writing to w.
func NewEmitter(w io.Writer) *Emitter {
	e := emitterPool.Get().(*Emitter)
	e.bw.Reset(w)
	e.buf = e.buf[:0]
	e.n, e.err = 0, nil
	return e
}

// Emit renders one event. The first write error is returned and
// remembered; later calls become no-ops returning it.
//
//loopvet:hot
func (e *Emitter) Emit(at time.Duration, m rrc.Message) error {
	if e.err != nil {
		return e.err
	}
	e.buf = appendEvent(e.buf[:0], at, m)
	n, err := e.bw.Write(e.buf)
	e.n += int64(n)
	e.err = err
	return err
}

// Append implements Sink. Write errors are sticky and surface at the
// next Emit, Flush or Close.
//
//lint:ignore loopvet/errflow write errors are sticky by the Sink contract: the discarded Emit error resurfaces at the next Emit, Flush or Close
func (e *Emitter) Append(at time.Duration, m rrc.Message) { e.Emit(at, m) }

// BytesWritten returns how many rendered bytes have been accepted so
// far (some may still sit in the flush buffer).
func (e *Emitter) BytesWritten() int64 { return e.n }

// Flush forces buffered bytes to the underlying writer and reports the
// first error seen.
func (e *Emitter) Flush() error {
	if e.err != nil {
		return e.err
	}
	e.err = e.bw.Flush()
	return e.err
}

// Close flushes and returns the emitter's buffers to the pool. The
// emitter must not be used afterwards.
func (e *Emitter) Close() error {
	err := e.Flush()
	e.bw.Reset(io.Discard)
	emitterPool.Put(e)
	return err
}

// WriteTo renders the log in the NSG-style text format. One event is a
// header line ("<ts> <TECH> RRC OTA Packet -- <CH> / <Kind>") followed
// by indented detail lines. The output round-trips through Parse.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	e := NewEmitter(w)
	for _, ev := range l.Events {
		if err := e.Emit(ev.At, ev.Msg); err != nil {
			break
		}
	}
	n := e.n
	err := e.Close()
	return n, err
}

// String renders the whole log as text.
func (l *Log) String() string {
	var b strings.Builder
	//lint:ignore loopvet/errflow strings.Builder's Write never fails, so WriteTo cannot return an error here
	l.WriteTo(&b) // strings.Builder never errors
	return b.String()
}

// appendEvent renders one event (header plus detail lines, all
// newline-terminated) without intermediate allocations.
//
//loopvet:hot
func appendEvent(b []byte, at time.Duration, m rrc.Message) []byte {
	b = appendTimestamp(b, at)
	b = append(b, ' ')
	if _, ok := m.(rrc.Exception); ok {
		b = append(b, "SYS -- EXCEPTION\n"...)
	} else {
		b = append(b, tech(m)...)
		b = append(b, " RRC OTA Packet -- "...)
		b = append(b, channelOf(m)...)
		b = append(b, " / "...)
		b = append(b, m.Kind()...)
		b = append(b, '\n')
	}
	return appendDetails(b, m)
}

// appendTimestamp renders the HH:MM:SS.mmm clock.
//
//loopvet:hot
func appendTimestamp(b []byte, d time.Duration) []byte {
	ms := d.Milliseconds()
	b = appendPadded(b, ms/3600000, 2)
	b = append(b, ':')
	b = appendPadded(b, ms/60000%60, 2)
	b = append(b, ':')
	b = appendPadded(b, ms/1000%60, 2)
	b = append(b, '.')
	return appendPadded(b, ms%1000, 3)
}

// appendPadded renders v zero-padded to width digits (more when v is
// wider, matching fmt's %0*d).
func appendPadded(b []byte, v int64, width int) []byte {
	if v >= 0 {
		for lim := int64(10); width > 1; width, lim = width-1, lim*10 {
			if v < lim {
				b = append(b, '0')
			}
		}
	}
	return strconv.AppendInt(b, v, 10)
}

// appendFloat1 renders a float the way fmt's %.1f does. strconv serves
// a fixed 'f' precision through its arbitrary-precision decimal path;
// for a normal float below 2^59 the same digits come from rounding
// |v|·10 half-to-even on the binary mantissa, which is exact in a
// uint64. Zero, subnormals, NaN, ±Inf and larger magnitudes keep
// strconv.
//
//loopvet:hot
func appendFloat1(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits>>52) & 0x7ff
	if exp == 0 || exp >= 1023+59 {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	// |v| = mant·2^e with a 53-bit mant, so |v|·10 = x·2^e.
	x := (bits&(1<<52-1) | 1<<52) * 10
	var n uint64 // round-half-even(|v|·10)
	if e := exp - 1075; e >= 0 {
		n = x << e // e ≤ 6 below 2^59: exact, and n < 2^63
	} else if s := -e; s < 58 {
		n = x >> s
		rem, half := x&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	} // else x < 2^57 ≤ 2^(s-1): below one half, n = 0
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, n/10, 10)
	return append(b, '.', byte('0'+n%10))
}

// appendDetails renders the message-specific indented lines.
//
//loopvet:hot
func appendDetails(b []byte, m rrc.Message) []byte {
	switch v := m.(type) {
	case rrc.MIB:
		// A broadcast sighting: the CGI prints as 0 until the cell is
		// used (Fig. 24).
		return appendNRCellLine(b, v.Cell, v.Rat, false)
	case rrc.SIB1:
		b = appendNRCellLine(b, v.Cell, v.Rat, false)
		b = append(b, "  selectionThreshRSRP = "...)
		b = appendFloat1(b, v.ThreshRSRPDBm.Float())
		return append(b, '\n')
	case rrc.SetupRequest:
		return appendNRCellLine(b, v.Cell, v.Rat, true)
	case rrc.Setup:
		return appendNRCellLine(b, v.Cell, v.Rat, true)
	case rrc.SetupComplete:
		return appendNRCellLine(b, v.Cell, v.Rat, true)
	case rrc.Reconfig:
		return appendReconfig(b, v)
	case rrc.MeasReport:
		for _, e := range v.Entries {
			b = append(b, "  measResult {cell "...)
			b = appendRef(b, e.Cell)
			b = append(b, ", role "...)
			b = append(b, e.Role...)
			b = append(b, ", rsrp "...)
			b = appendFloat1(b, e.Meas.RSRPDBm.Float())
			b = append(b, ", rsrq "...)
			b = appendFloat1(b, e.Meas.RSRQDB.Float())
			b = append(b, "}\n"...)
		}
		return b
	case rrc.SCGFailureInfo:
		b = append(b, "  failureType "...)
		b = append(b, v.FailureType...)
		return append(b, '\n')
	case rrc.ReestablishmentRequest:
		b = append(b, "  reestablishmentCause "...)
		b = append(b, v.Cause...)
		return append(b, '\n')
	case rrc.ReestablishmentComplete:
		return appendLine(b, cellLine, 0, v.Cell.PCI, v.Cell.Channel)
	case rrc.Exception:
		b = append(b, "  MM5G State = "...)
		b = append(b, v.MMState...)
		b = append(b, ", Substate = "...)
		b = append(b, v.Substate...)
		return append(b, '\n')
	default: // ReconfigComplete, Release: no details
		return b
	}
}

// appendRef renders a cell reference as PCI@Channel.
func appendRef(b []byte, r cell.Ref) []byte {
	b = strconv.AppendInt(b, int64(r.PCI), 10)
	b = append(b, '@')
	return strconv.AppendInt(b, int64(r.Channel), 10)
}

// appendNRCellLine renders the cell-identity line the way NSG prints
// it: NR messages carry the cell's global ID (0 for a broadcast
// sighting of a cell not in use), LTE messages the short form.
func appendNRCellLine(b []byte, ref cell.Ref, rat band.RAT, used bool) []byte {
	if rat != band.RATNR {
		return appendLine(b, cellLine, 0, ref.PCI, ref.Channel)
	}
	cgi := uint64(0)
	if used {
		cgi = cell.DeriveCGI(ref)
	}
	return appendLine(b, nrCellLine, cgi, ref.PCI, ref.Channel)
}

// appendReconfig renders every populated reconfiguration field.
func appendReconfig(b []byte, v rrc.Reconfig) []byte {
	b = appendLine(b, cellLine, 0, v.Serving.PCI, v.Serving.Channel)
	for _, a := range v.AddSCells {
		b = appendLine(b, addModLine, 0, a.Index, a.Cell.PCI, a.Cell.Channel)
	}
	if len(v.ReleaseSCells) > 0 {
		b = append(b, "  sCellToReleaseList {"...)
		for i, r := range v.ReleaseSCells {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, int64(r), 10)
		}
		b = append(b, "}\n"...)
	}
	if v.SpCell != nil {
		b = appendLine(b, spCellLine, 0, v.SpCell.PCI, v.SpCell.Channel)
	}
	for _, s := range v.SCGSCells {
		b = appendLine(b, scgSCellLine, 0, s.PCI, s.Channel)
	}
	if v.SCGRelease {
		b = append(b, "  scg-Release {}\n"...)
	}
	if v.Mobility != nil {
		b = appendLine(b, mobilityLine, 0, v.Mobility.PCI, v.Mobility.Channel)
	}
	for _, mc := range v.MeasConfig {
		b = append(b, "  measConfig {"...)
		b = append(b, mc.String()...)
		b = append(b, "}\n"...)
	}
	return b
}
