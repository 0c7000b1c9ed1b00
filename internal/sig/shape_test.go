package sig

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// lineCase is one rendering of a lineShapes entry, as a trimmed detail
// line.
type lineCase struct {
	k    int
	line string
}

// record wraps the line in a record whose build reads it: a cell
// identity line alone under a setup request, any other line after the
// serving cell of a reconfiguration.
func (c lineCase) record() string {
	switch c.k {
	case nrCellLine:
		return "00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n  " + c.line + "\n"
	case cellLine:
		return "00:00:01.000 LTE RRC OTA Packet -- UL_CCCH / RRCConnectionSetupRequest\n  " + c.line + "\n"
	}
	return "00:00:01.000 LTE RRC OTA Packet -- DL_DCCH / RRCConnectionReconfiguration\n" +
		"  Physical Cell ID = 380, Freq = 5145\n  " + c.line + "\n"
}

// fieldArgs returns the values of shape sh's fields in format order,
// the signed ones taken from v and the CGI field set to cgi, and how
// many of v it used.
func fieldArgs(sh lineShape, v [3]int, cgi uint64) (args []any, signed int) {
	for field := 1; field <= strings.Count(sh.format, "%d"); field++ {
		if field == sh.cgi {
			args = append(args, cgi)
		} else {
			args = append(args, v[signed])
			signed++
		}
	}
	return args, signed
}

// lineShapeCases renders every entry of lineShapes canonically and in
// off-canonical ways: a doubled space, a + sign on every field (which
// the CGI field must refuse), a 19-digit field, a field past the int64
// range, a missing } (a missing last field on the lines without
// braces) and bytes after the end.
func lineShapeCases() []lineCase {
	var cases []lineCase
	for k, sh := range lineShapes {
		args, _ := fieldArgs(sh, [3]int{3, 273, 387410}, 21320959152398996)
		canon := fmt.Sprintf(sh.format, args...)
		cut := strings.TrimSuffix(canon, "}")
		if cut == canon {
			cut = canon[:strings.LastIndexByte(canon, ' ')+1]
		}
		long := append([]any{uint64(1234567890123456789)}, args[1:]...)
		over := append([]any{uint64(1 << 63)}, args[1:]...)
		for _, line := range []string{
			canon,
			fmt.Sprintf(strings.Replace(sh.format, " %d", "  %d", 1), args...),
			fmt.Sprintf(strings.ReplaceAll(sh.format, "%d", "+%d"), args...),
			fmt.Sprintf(sh.format, long...),
			fmt.Sprintf(sh.format, over...),
			cut,
			canon + " tail",
		} {
			cases = append(cases, lineCase{k, line})
		}
	}
	return cases
}

// refScanLine is the old parser's read of one line shape: fmt.Sscanf
// with the entry's format, into an int per signed field and a uint64
// for the CGI.
func refScanLine(sh lineShape, line string) ([3]int, error) {
	var v [3]int
	var cgi uint64
	var err error
	switch {
	case sh.cgi == 2:
		_, err = fmt.Sscanf(line, sh.format, &v[0], &cgi, &v[1])
	case strings.Count(sh.format, "%d") == 3:
		_, err = fmt.Sscanf(line, sh.format, &v[0], &v[1], &v[2])
	default:
		_, err = fmt.Sscanf(line, sh.format, &v[0], &v[1])
	}
	if err != nil {
		return [3]int{}, fmt.Errorf("%s %q: %w", sh.what, line, err)
	}
	return v, nil
}

// requireLineParity checks parseLine on one line of shape k against the
// old parser: the fast path accepts only what Sscanf reads as the same
// values, and the full read gives the same values or error text. On a
// cell-identity line it also checks the NR-then-short read against the
// reference parser's.
func requireLineParity(t *testing.T, k int, line string) {
	t.Helper()
	sh := lineShapes[k]
	want, wantErr := refScanLine(sh, line)
	if v, ok := scanLine([]byte(line), k); ok && (wantErr != nil || v != want) {
		t.Fatalf("fast path reads %q as %v; Sscanf gives %v, %v", line, v, want, wantErr)
	}
	got, err := parseLine([]byte(line), k)
	requireSameRead(t, line, got, err, want, wantErr)
	if (k == nrCellLine || k == cellLine) && strings.HasPrefix(line, sh.prefix) {
		ref, refErr := refFindCellLine([]string{line})
		got, err := parseLine([]byte(line), nrCellLine, cellLine)
		requireSameRead(t, line, got, err, [3]int{ref.PCI, ref.Channel}, refErr)
	}
}

// requireSameRead fails the test unless a read of line gave want, or
// an error with wantErr's text.
func requireSameRead(t *testing.T, line string, got [3]int, err error, want [3]int, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("reading %q: error %v, want %v", line, err, wantErr)
	}
	if err == nil && got != want {
		t.Fatalf("reading %q: %v, want %v", line, got, want)
	}
}

// FuzzLineShape holds each lineShapes entry's fast path to its Sscanf
// format: whenever the fast path accepts a line, Sscanf accepts it with
// the same values, and parseLine reads any line as the old parser did.
func FuzzLineShape(f *testing.F) {
	for _, c := range lineShapeCases() {
		f.Add(uint8(c.k), c.line)
	}
	f.Fuzz(func(t *testing.T, k uint8, line string) {
		requireLineParity(t, int(k)%len(lineShapes), line)
	})
}

// TestLineShapeRendering: the emitter writes each entry exactly as
// fmt.Sprintf with its format does, for negative, zero and 18-digit
// values and for CGIs at and above 2^63, and the parser reads the
// values back.
func TestLineShapeRendering(t *testing.T) {
	for k, sh := range lineShapes {
		for _, v := range [][3]int{
			{0, 0, 0},
			{-1, -273, -387410},
			{999999999999999999, -999999999999999999, 100000000000000000},
		} {
			for _, cgi := range []uint64{0, 21320959152398996, 1 << 63, math.MaxUint64} {
				if sh.cgi == 0 && cgi != 0 {
					continue
				}
				args, signed := fieldArgs(sh, v, cgi)
				want := "  " + fmt.Sprintf(sh.format, args...) + "\n"
				got := string(appendLine(nil, k, cgi, v[:signed]...))
				if got != want {
					t.Fatalf("line %d renders %v, CGI %d as %q, want %q", k, v, cgi, got, want)
				}
				var fields [3]int
				copy(fields[:], v[:signed])
				back, err := parseLine([]byte(strings.TrimSpace(got)), k)
				requireSameRead(t, got, back, err, fields, nil)
			}
		}
	}
}
