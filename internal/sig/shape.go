package sig

import (
	"fmt"
	"strconv"
	"strings"
)

// lineShape declares a detail line whose fields are all integers by the
// old parser's fmt.Sscanf format, the one place the line is spelled
// out. The emitter renders the line from the format's literal pieces,
// the parser's fast path walks the same pieces, and a line the fast
// path misses goes to fmt.Sscanf with that same format, so the values,
// the verdict and the error text are the old parser's on every input.
type lineShape struct {
	prefix string // the HasPrefix test that dispatches a detail line here
	format string // the old parser's Sscanf format, one %d per field
	what   string // the old parser's error prefix
	cgi    int    // which %d, counting from 1, is the unsigned NR Cell Global ID; 0 if none
}

// The integer detail lines, indices into lineShapes.
const (
	nrCellLine = iota
	cellLine
	addModLine
	spCellLine
	scgSCellLine
	mobilityLine
)

var lineShapes = [...]lineShape{
	nrCellLine:   {"Physical Cell ID = ", "Physical Cell ID = %d, NR Cell Global ID = %d, Freq = %d", "bad cell line", 2},
	cellLine:     {"Physical Cell ID = ", "Physical Cell ID = %d, Freq = %d", "bad cell line", 0},
	addModLine:   {"sCellToAddModList ", "sCellToAddModList {sCellIndex %d, physCellId %d, absoluteFrequencySSB %d}", "bad sCellToAddModList", 0},
	spCellLine:   {"spCellConfig {", "spCellConfig {physCellId %d, ssbFrequency %d}", "bad spCellConfig", 0},
	scgSCellLine: {"scgSCell {", "scgSCell {physCellId %d, ssbFrequency %d}", "bad scgSCell", 0},
	mobilityLine: {"mobilityControlInfo {", "mobilityControlInfo {targetPhysCellId %d, dl-CarrierFreq %d}", "bad mobilityControlInfo", 0},
}

// appendLine renders line k as the emitter writes it, indented and
// newline-terminated: its signed fields from v, in order, and its CGI
// field, if it has one, from cgi.
//
//loopvet:hot
func appendLine(b []byte, k int, cgi uint64, v ...int) []byte {
	sh := &lineShapes[k]
	b = append(b, "  "...)
	f := sh.format
	for field := 1; ; field++ {
		lit, rest, more := strings.Cut(f, "%d")
		b = append(b, lit...)
		if !more {
			return append(b, '\n')
		}
		if field == sh.cgi {
			b = strconv.AppendUint(b, cgi, 10)
		} else {
			b = strconv.AppendInt(b, int64(v[0]), 10)
			v = v[1:]
		}
		f = rest
	}
}

// isLine reports whether the trimmed detail line d dispatches to line k.
//
//loopvet:hot
func isLine(d []byte, k int) bool {
	_, ok := matchLit(d, 0, lineShapes[k].prefix)
	return ok
}

// parseLine reads d as the first of the lines ks whose format reads it,
// returning its signed fields in order. The fast paths all run before
// any Sscanf: lines that share a prefix differ in the literal after
// their first field, so a line one fast path accepts is one no other
// format reads, and the verdict is that of the old in-order Sscanf.
//
//loopvet:hot
func parseLine(d []byte, ks ...int) ([3]int, error) {
	for _, k := range ks {
		if v, ok := scanLine(d, k); ok {
			return v, nil
		}
	}
	return sscanLine(d, ks)
}

// scanLine is line k's canonical fast path: the format's literal pieces
// byte for byte, and in each field a decimal run fmt's %d reads as the
// same value (a sign and at most 18 digits; in the CGI field at most 19
// digits and no sign). Bytes after the last piece are ignored, as
// Sscanf ignores them. Anything else is a miss.
//
//loopvet:hot
func scanLine(d []byte, k int) (v [3]int, ok bool) {
	sh := &lineShapes[k]
	f, pos, j := sh.format, 0, 0
	for field := 1; ; field++ {
		lit, rest, more := strings.Cut(f, "%d")
		if pos, ok = matchLit(d, pos, lit); !ok || !more {
			return v, ok
		}
		if field == sh.cgi {
			_, pos, ok = scanUintB(d, pos)
		} else {
			v[j], pos, ok = scanIntB(d, pos)
			j++
		}
		if !ok {
			return v, false
		}
		f = rest
	}
}

// sscanLine is the fallback: the old parser's Sscanf with each format
// in turn on one materialized copy, and the last one's error text.
func sscanLine(db []byte, ks []int) (v [3]int, err error) {
	d := string(db)
	for _, k := range ks {
		sh := &lineShapes[k]
		var dst struct {
			v   [3]int
			cgi uint64
		}
		var args [3]any
		n := strings.Count(sh.format, "%d")
		for field, j := 1, 0; field <= n; field++ {
			if field == sh.cgi {
				args[field-1] = &dst.cgi
			} else {
				args[field-1] = &dst.v[j]
				j++
			}
		}
		if _, err = fmt.Sscanf(d, sh.format, args[:n]...); err == nil {
			return dst.v, nil
		}
	}
	return v, fmt.Errorf("%s %q: %w", lineShapes[ks[len(ks)-1]].what, d, err)
}
