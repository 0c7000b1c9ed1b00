package sig

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// entriesOf returns event i's measurement-report entries.
func entriesOf(t *testing.T, l *Log, i int) []rrc.MeasEntry {
	t.Helper()
	mr, ok := l.Events[i].Msg.(rrc.MeasReport)
	if !ok {
		t.Fatalf("event %d is %T, want rrc.MeasReport", i, l.Events[i].Msg)
	}
	return mr.Entries
}

// TestLogAppendCopiesBorrowedEntries: Log.Append keeps its own copy of
// a report's entries, so a producer refilling its buffer after Append
// returns changes nothing the Log holds, and each kept slice is capped
// at its length, so appending to one report's entries leaves the next
// report's alone.
func TestLogAppendCopiesBorrowedEntries(t *testing.T) {
	entry := func(pci int, rsrp float64) rrc.MeasEntry {
		return rrc.MeasEntry{Cell: ref(fmt.Sprintf("%d@521310", pci)), Role: rrc.RoleCandidate,
			Meas: meas.Measurement{RSRPDBm: units.DBm(rsrp), RSRQDB: -11}}
	}
	buf := []rrc.MeasEntry{entry(1, -80), entry(2, -90), entry(3, -100)}
	first := append([]rrc.MeasEntry(nil), buf...)

	l := &Log{}
	l.Append(time.Second, rrc.MeasReport{Rat: band.RATNR, Entries: buf})
	buf[0], buf[1], buf[2] = entry(7, -70), entry(8, -71), entry(9, -72)
	second := append([]rrc.MeasEntry(nil), buf[:2]...)
	l.Append(2*time.Second, rrc.MeasReport{Rat: band.RATNR, Entries: buf[:2]})
	for i := range buf {
		buf[i] = entry(999, -156)
	}

	if got := entriesOf(t, l, 0); !reflect.DeepEqual(got, first) {
		t.Fatalf("first report = %v after the producer reused its buffer, want %v", got, first)
	}
	if got := entriesOf(t, l, 1); !reflect.DeepEqual(got, second) {
		t.Fatalf("second report = %v after the producer reused its buffer, want %v", got, second)
	}

	kept := entriesOf(t, l, 0)
	if cap(kept) != len(kept) {
		t.Fatalf("kept entries have cap %d, want their length %d", cap(kept), len(kept))
	}
	_ = append(kept, entry(42, -60))
	if got := entriesOf(t, l, 1); !reflect.DeepEqual(got, second) {
		t.Fatalf("appending to the first report's entries changed the second: %v, want %v", got, second)
	}
}

// TestLogAppendKeepsNilness: a report without entries keeps nil or
// empty exactly as delivered, and a report larger than one store chunk
// is kept whole.
func TestLogAppendKeepsNilness(t *testing.T) {
	big := make([]rrc.MeasEntry, entryChunk+5)
	for i := range big {
		big[i] = rrc.MeasEntry{Cell: ref(fmt.Sprintf("%d@387410", i)), Role: rrc.RoleSCell}
	}
	l := &Log{}
	l.Append(0, rrc.MeasReport{Rat: band.RATLTE})
	l.Append(1, rrc.MeasReport{Rat: band.RATLTE, Entries: []rrc.MeasEntry{}})
	l.Append(2, rrc.MeasReport{Rat: band.RATLTE, Entries: big})
	if got := entriesOf(t, l, 0); got != nil {
		t.Errorf("nil entries kept as %#v", got)
	}
	if got := entriesOf(t, l, 1); got == nil || len(got) != 0 {
		t.Errorf("empty entries kept as %#v, want empty and non-nil", got)
	}
	if got := entriesOf(t, l, 2); !reflect.DeepEqual(got, big) {
		t.Errorf("a report of %d entries was not kept whole (%d kept)", len(big), len(got))
	}
}

// TestParserReleaseDropsOversizedEntries: the pooled parser keeps its
// entries buffer across parses, unless one report grew it past
// maxRetainedBuf; then release drops it, so one capture with a giant
// report cannot pin the buffer in the pool.
func TestParserReleaseDropsOversizedEntries(t *testing.T) {
	build := func(n int) *parser {
		t.Helper()
		p := acquireParser(eofReader{})
		p.cur.rat = band.RATNR
		line := []byte("measResult {cell 393@521310, role PCell, rsrp -80.5, rsrq -10.5}")
		details := make([][]byte, n)
		for i := range details {
			details[i] = line
		}
		msg, err := p.buildMeasReport(details)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(msg.(rrc.MeasReport).Entries); got != n {
			t.Fatalf("built %d entries, want %d", got, n)
		}
		p.release()
		return p
	}
	if p := build(3); cap(p.entries) < 3 {
		t.Errorf("release dropped a %d-entry buffer", 3)
	}
	if p := build(maxRetainedEntries + 1); p.entries != nil {
		t.Errorf("release kept a buffer of %d entries, over the %d-entry cap", cap(p.entries), maxRetainedEntries)
	}
}
