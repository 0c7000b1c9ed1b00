package sig

// Byte-level scanners for the canonical shapes the emitter produces.
//
// The contract that keeps the []byte parser behavior-identical to the
// old fmt.Sscanf/strconv string path is deliberately one-sided: every
// fast scanner here accepts ONLY inputs on which fmt/strconv would
// succeed with the same value — exact literal bytes (single spaces,
// ASCII), plain decimal digit runs short enough to never overflow, and
// floats small enough for an exact mantissa/power-of-ten division.
// Anything else (extra spaces, signs fmt tolerates, overflow, exotic
// floats, garbled text) is a fast-path miss, and the caller re-runs the
// old string-based code verbatim on a materialized copy. Parity —
// values, acceptance decisions and error text — therefore holds by
// construction: the fallback IS the old parser, and FuzzParseBytes
// plus the corrupted-golden deep-equal tests enforce it.

import (
	"time"

	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// matchLit reports whether b continues with the literal at pos,
// returning the position just past it. Comparing through string(b[...])
// against a constant compiles to an allocation-free memequal.
//
//loopvet:hot
func matchLit(b []byte, pos int, lit string) (int, bool) {
	end := pos + len(lit)
	if end > len(b) || string(b[pos:end]) != lit {
		return pos, false
	}
	return end, true
}

// scanDigitsB scans a run of 1..18 ASCII digits at pos (18 digits can
// never overflow int64, so the accumulated value is always exact).
// Longer runs and empty runs are fast-path misses.
//
//loopvet:hot
func scanDigitsB(b []byte, pos int) (v int, end int, ok bool) {
	i := pos
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		i++
	}
	if i == pos || i-pos > 18 {
		return 0, pos, false
	}
	return v, i, true
}

// scanIntB is scanDigitsB with the optional sign fmt's %d accepts.
//
//loopvet:hot
func scanIntB(b []byte, pos int) (v int, end int, ok bool) {
	i := pos
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		i++
	}
	v, end, ok = scanDigitsB(b, i)
	if !ok {
		return 0, pos, false
	}
	if i > pos && b[pos] == '-' {
		v = -v
	}
	return v, end, true
}

// scanUintB scans 1..19 ASCII digits into a uint64 (19 digits stay
// below 1<<64, so no overflow check is needed; 20+ digits fall back).
//
//loopvet:hot
func scanUintB(b []byte, pos int) (v uint64, end int, ok bool) {
	i := pos
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	if i == pos || i-pos > 19 {
		return 0, pos, false
	}
	return v, i, true
}

// scanAtoiB accepts exactly the full-token decimal subset of
// strconv.Atoi: an optional sign and 1..18 digits consuming the whole
// token. Any other token is a fast-path miss.
//
//loopvet:hot
func scanAtoiB(tok []byte) (int, bool) {
	v, end, ok := scanIntB(tok, 0)
	if !ok || end != len(tok) {
		return 0, false
	}
	return v, true
}

// pow10 holds the exactly-representable powers of ten the float fast
// path divides by (10^k is exact in float64 for k <= 22; we only need
// up to 15 fractional digits).
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanFloatB parses "[+-]digits[.digits]" consuming the whole token,
// with at most 15 total digits. Under that bound the mantissa is exact
// in float64 and dividing by an exact power of ten is correctly
// rounded, so the result is bit-identical to strconv.ParseFloat (this
// is strconv's own exact-integer fast path). Everything else — exponents,
// hex floats, NaN/Inf, long mantissas — is a fast-path miss.
//
//loopvet:hot
func scanFloatB(b []byte) (float64, bool) {
	f, end, ok := scanFloatAtB(b, 0)
	return f, ok && end == len(b)
}

// scanFloatAtB is scanFloatB on the float that starts at pos, returning
// the position just past it: the token ends at the first byte that
// cannot continue "[+-]digits[.digits]", and the caller checks what
// follows.
//
//loopvet:hot
func scanFloatAtB(b []byte, pos int) (f float64, end int, ok bool) {
	i := pos
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var mant uint64
	digits := 0
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		mant = mant*10 + uint64(b[i]-'0')
		digits++
		i++
	}
	if i == start {
		return 0, pos, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		fs := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
			frac++
			i++
		}
		if i == fs {
			return 0, pos, false
		}
	}
	if digits > 15 {
		return 0, pos, false
	}
	f = float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, i, true
}

// scanRoleB matches, at pos, the one measurement role the next bytes
// can start: the first byte tells the roles apart, and the second the
// two that start with P.
//
//loopvet:hot
func scanRoleB(b []byte, pos int) (rrc.MeasRole, int, bool) {
	r := rrc.RolePCell
	if pos+1 < len(b) {
		switch {
		case b[pos] == 'c':
			r = rrc.RoleCandidate
		case b[pos] == 'S':
			r = rrc.RoleSCell
		case b[pos+1] == 'S':
			r = rrc.RolePSCell
		}
	}
	end, ok := matchLit(b, pos, string(r))
	return r, end, ok
}

// scanMeasResultB is the canonical fast path for a whole trimmed
// measResult line, exactly as the emitter writes it, with one of the
// four roles it writes:
//
//	measResult {cell <int>@<int>, role <role>, rsrp <float>, rsrq <float>}
//
// It reads the fields in place, in that order, and searches for none.
// On a line it accepts, the old per-field split yields the same four
// fields with the same values, so the entry is the one buildMeasReport
// would build. Any other shape — a reordered, repeated or missing
// field, an unknown role, an extra space, a value the fast scanners
// reject, a byte after the closing brace — is a miss, and the line
// goes to buildMeasReport's per-field loop.
//
//loopvet:hot
func scanMeasResultB(d []byte) (e rrc.MeasEntry, ok bool) {
	pos, ok := matchLit(d, 0, "measResult {cell ")
	if !ok {
		return e, false
	}
	if e.Cell.PCI, pos, ok = scanIntB(d, pos); !ok {
		return e, false
	}
	if pos, ok = matchLit(d, pos, "@"); !ok {
		return e, false
	}
	if e.Cell.Channel, pos, ok = scanIntB(d, pos); !ok {
		return e, false
	}
	if pos, ok = matchLit(d, pos, ", role "); !ok {
		return e, false
	}
	if e.Role, pos, ok = scanRoleB(d, pos); !ok {
		return e, false
	}
	var rsrp, rsrq float64
	if pos, ok = matchLit(d, pos, ", rsrp "); !ok {
		return e, false
	}
	if rsrp, pos, ok = scanFloatAtB(d, pos); !ok {
		return e, false
	}
	if pos, ok = matchLit(d, pos, ", rsrq "); !ok {
		return e, false
	}
	if rsrq, pos, ok = scanFloatAtB(d, pos); !ok {
		return e, false
	}
	if pos, ok = matchLit(d, pos, "}"); !ok || pos != len(d) {
		return e, false
	}
	e.Meas.RSRPDBm, e.Meas.RSRQDB = units.DBm(rsrp), units.DB(rsrq)
	return e, true
}

// parseTimestampB inverts appendTimestamp on the fast path: pure-digit
// "H:M:S.mmm" components with the same range checks parseTimestamp
// applies, trailing bytes ignored the way Sscanf ignores them. Signed
// components, long digit runs and other oddities fall back to the
// string parser so acceptance decisions (and wrap-around on absurd
// hour values) stay identical.
//
//loopvet:hot
func parseTimestampB(b []byte) (time.Duration, bool) {
	h, i, ok := scanDigitsB(b, 0)
	if !ok || i >= len(b) || b[i] != ':' {
		return parseTimestampSlow(b)
	}
	m, i, ok := scanDigitsB(b, i+1)
	if !ok || i >= len(b) || b[i] != ':' {
		return parseTimestampSlow(b)
	}
	sec, i, ok := scanDigitsB(b, i+1)
	if !ok || i >= len(b) || b[i] != '.' {
		return parseTimestampSlow(b)
	}
	ms, _, ok := scanDigitsB(b, i+1)
	if !ok {
		return parseTimestampSlow(b)
	}
	if m > 59 || sec > 59 || ms > 999 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(sec)*time.Second + time.Duration(ms)*time.Millisecond, true
}

// parseTimestampSlow is the old Sscanf-based timestamp parser on a
// materialized copy.
func parseTimestampSlow(b []byte) (time.Duration, bool) {
	return parseTimestamp(string(b))
}
