// Package sig defines the signaling-capture format: a Network Signal
// Guru-style text log of RRC messages (the shape shown in the paper's
// Appendix B, Figures 24–26) with an emitter and a tolerant parser.
//
// The analysis pipeline deliberately runs on *parsed logs*, never on
// simulator internals, mirroring the authors' methodology: NSG capture →
// parse → serving-cell-set sequence → loop detection. The same parser
// therefore works on hand-written or externally produced logs in this
// format (see examples/parsetrace).
package sig

import (
	"fmt"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/rrc"
)

// Event is one captured message with its offset from the start of the
// run. Offsets are used instead of wall-clock times so runs are
// reproducible and comparable.
type Event struct {
	At  time.Duration
	Msg rrc.Message
}

// Log is an ordered signaling capture. A Log owns everything its
// events reference, so it can be kept for as long as the caller likes.
type Log struct {
	Events []Event

	// free is the unused tail of the chunk that Append copies
	// measurement-report entries into.
	free []rrc.MeasEntry
}

// entryChunk is how many measurement entries Log.Append allocates at a
// time: a 5-minute run reports 1,000–3,500.
const entryChunk = 1024

// Append records a message at the given offset. It implements Sink, so
// a report's Entries are only lent to it: Append keeps a copy, carved
// from a chunked store the Log owns. Each kept Entries slice is capped
// at its length, so appending to it never writes into the next
// report's, and a nil Entries stays nil.
func (l *Log) Append(at time.Duration, m rrc.Message) {
	if mr, ok := m.(rrc.MeasReport); ok && mr.Entries != nil {
		mr.Entries = l.keep(mr.Entries)
		m = mr
	}
	l.Events = append(l.Events, Event{At: at, Msg: m})
}

// keep copies borrowed entries into the Log's store.
func (l *Log) keep(es []rrc.MeasEntry) []rrc.MeasEntry {
	n := len(es)
	if n == 0 {
		return []rrc.MeasEntry{}
	}
	if len(l.free) < n {
		l.free = make([]rrc.MeasEntry, max(n, entryChunk))
	}
	kept := l.free[:n:n]
	copy(kept, es)
	l.free = l.free[n:]
	return kept
}

// Len returns the number of events.
func (l *Log) Len() int { return len(l.Events) }

// Duration returns the offset of the last event (0 for an empty log).
func (l *Log) Duration() time.Duration {
	if len(l.Events) == 0 {
		return 0
	}
	return l.Events[len(l.Events)-1].At
}

// tech returns the NSG technology tag for a message.
func tech(m rrc.Message) string {
	if m.RAT() == band.RATNR {
		return "NR5G"
	}
	return "LTE"
}

// channelOf maps a message kind to the logical channel NSG shows in the
// packet header.
func channelOf(m rrc.Message) string {
	switch m.(type) {
	case rrc.MIB:
		return "BCCH_BCH"
	case rrc.SIB1:
		return "BCCH_DL_SCH"
	case rrc.SetupRequest, rrc.ReestablishmentRequest:
		return "UL_CCCH"
	case rrc.Setup:
		return "DL_CCCH"
	case rrc.SetupComplete, rrc.ReconfigComplete, rrc.MeasReport,
		rrc.SCGFailureInfo, rrc.ReestablishmentComplete:
		return "UL_DCCH"
	case rrc.Reconfig, rrc.Release:
		return "DL_DCCH"
	default:
		return "SYS"
	}
}

// Timestamp renders an offset as the HH:MM:SS.mmm clock NSG logs use,
// anchored at 00:00:00.
func Timestamp(d time.Duration) string {
	ms := d.Milliseconds()
	h := ms / 3600000
	m := ms / 60000 % 60
	s := ms / 1000 % 60
	return fmt.Sprintf("%02d:%02d:%02d.%03d", h, m, s, ms%1000)
}

// parseTimestamp inverts Timestamp, reporting whether s is a clock it
// could have written.
func parseTimestamp(s string) (time.Duration, bool) {
	var h, m, sec, ms int
	if _, err := fmt.Sscanf(s, "%d:%d:%d.%d", &h, &m, &sec, &ms); err != nil {
		return 0, false
	}
	if m < 0 || m > 59 || sec < 0 || sec > 59 || ms < 0 || ms > 999 || h < 0 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(sec)*time.Second + time.Duration(ms)*time.Millisecond, true
}
