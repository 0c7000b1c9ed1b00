package faults

// This file preserves the string-based streaming injector that the
// pooled, span-based corruptReader replaced, verbatim apart from a ref
// prefix on its names, as a test-only reference implementation. Every
// byte the production reader serves — and therefore every RNG draw it
// makes — is checked against this oracle by FuzzInjectorParity,
// FuzzHeaderTime and the hold-window tests. Keep it byte-faithful to
// the old code paths: its fmt.Sscanf/strings semantics are the
// contract the byte path must reproduce.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// refBlock is one event (header + indented details) or one foreign line.
type refBlock struct {
	lines []string
	at    time.Duration // header timestamp, valid when event
	event bool
}

// refGarble scrambles one randomly chosen digit run of the line.
func (in *Injector) refGarble(line string) string {
	type run struct{ lo, hi int }
	var runs []run
	for i := 0; i < len(line); {
		if line[i] < '0' || line[i] > '9' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] >= '0' && line[j] <= '9' {
			j++
		}
		runs = append(runs, run{i, j})
		i = j
	}
	if len(runs) == 0 {
		return line
	}
	r := runs[in.rng.Intn(len(runs))]
	b := []byte(line)
	for i := r.lo; i < r.hi; i++ {
		b[i] = garbleAlphabet[in.rng.Intn(len(garbleAlphabet))]
	}
	return string(b)
}

// setTime rewrites the block's header timestamp (clamped at zero).
func (b *refBlock) setTime(t time.Duration) {
	if t < 0 {
		t = 0
	}
	b.at = t
	if sp := strings.IndexByte(b.lines[0], ' '); sp > 0 {
		b.lines[0] = formatClock(t) + b.lines[0][sp:]
	}
}

// refHeaderTime recognizes the "HH:MM:SS.mmm " prefix of an event header.
func refHeaderTime(line string) (time.Duration, bool) {
	sp := strings.IndexByte(line, ' ')
	if sp <= 0 || strings.HasPrefix(line, " ") {
		return 0, false
	}
	var h, m, s, ms int
	if n, err := fmt.Sscanf(line[:sp], "%d:%d:%d.%d", &h, &m, &s, &ms); err != nil || n != 4 {
		return 0, false
	}
	if h < 0 || m < 0 || m > 59 || s < 0 || s > 59 || ms < 0 || ms > 999 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
		time.Duration(s)*time.Second + time.Duration(ms)*time.Millisecond, true
}

// refReader is the old Injector.Reader.
func refReader(in *Injector, r io.Reader) io.Reader {
	cr := &refCorruptReader{in: in, br: bufio.NewReaderSize(r, 32*1024)}
	if in.rates.Truncate > 0 {
		cr.holding = true
	}
	return cr
}

// refCorrupt is refReader drained into a string.
func refCorrupt(in *Injector, text string) string {
	var sb strings.Builder
	sb.Grow(len(text) + len(text)/8)
	_, _ = io.Copy(&sb, refReader(in, strings.NewReader(text))) // a string source never errors
	return sb.String()
}

// refCorruptReader is the streaming corruption state machine. Input lines
// are grouped into blocks exactly as toBlocks does; each completed
// block passes through the structural stage (clock jumps, a one-block
// swap lookahead, the restart hazard) and then the line-level stage,
// whose output is served to the caller — held back only by the bounded
// truncation window.
type refCorruptReader struct {
	in *Injector
	br *bufio.Reader

	lineBuf []byte // reused by readLine
	readAny bool   // any input byte seen
	lastNL  bool   // most recent input line ended with '\n'
	srcEOF  bool
	srcErr  error // non-EOF input error, served after pending output

	cur  *refBlock // event block under assembly
	held *refBlock // event block awaiting its swap partner

	emitIdx        int // blocks emitted, in final order
	restartDecided bool
	restartArmed   bool
	restartDone    bool
	rebase         bool // restart fired: rebase event clocks
	haveT0         bool
	t0             time.Duration

	wroteLine bool // separator bookkeeping: a '\n' precedes every line but the first
	outTotal  int  // total corrupted bytes produced (pre-truncation)
	hold      []byte
	holding   bool // Truncate enabled: route output through hold
	serve     []byte
	done      bool
}

func (cr *refCorruptReader) Read(p []byte) (int, error) {
	for len(cr.serve) == 0 && !cr.done {
		cr.step()
	}
	if len(cr.serve) == 0 {
		if cr.srcErr != nil {
			return 0, cr.srcErr
		}
		return 0, io.EOF
	}
	n := copy(p, cr.serve)
	cr.serve = cr.serve[n:]
	return n, nil
}

// step consumes one input line (or finalizes at EOF), possibly
// producing served output.
func (cr *refCorruptReader) step() {
	if cr.srcEOF {
		cr.finish()
		return
	}
	line, sawNL, err := cr.readLine()
	if err != nil && err != io.EOF {
		cr.srcErr = err
		cr.srcEOF = true
		cr.finish()
		return
	}
	if err == io.EOF {
		cr.srcEOF = true
		if len(line) == 0 && !sawNL {
			// EOF on a line boundary — unless the input was entirely
			// empty, which the split-based algorithm treats as one
			// empty line.
			if cr.readAny {
				cr.finish()
				return
			}
		}
	}
	cr.readAny = true
	cr.lastNL = sawNL
	cr.feedLine(string(line))
	if cr.srcEOF {
		cr.finish()
	}
}

// readLine reads up to the next '\n' (exclusive), growing past the
// bufio window when needed — line length is unbounded, matching the
// whole-string algorithm.
func (cr *refCorruptReader) readLine() (line []byte, sawNL bool, err error) {
	cr.lineBuf = cr.lineBuf[:0]
	for {
		chunk, e := cr.br.ReadSlice('\n')
		cr.lineBuf = append(cr.lineBuf, chunk...)
		if e == bufio.ErrBufferFull {
			continue
		}
		if n := len(cr.lineBuf); n > 0 && cr.lineBuf[n-1] == '\n' {
			return cr.lineBuf[:n-1], true, nil
		}
		return cr.lineBuf, false, e
	}
}

// feedLine advances block assembly: headers open a new event block,
// indented or blank lines continue one, anything else is its own
// foreign block.
func (cr *refCorruptReader) feedLine(line string) {
	if at, ok := refHeaderTime(line); ok {
		cr.closeCur()
		cr.cur = &refBlock{lines: []string{line}, at: at, event: true}
		return
	}
	if cr.cur != nil && (strings.HasPrefix(line, "  ") || strings.TrimSpace(line) == "") {
		cr.cur.lines = append(cr.cur.lines, line)
		return
	}
	cr.closeCur()
	cr.dispatch(refBlock{lines: []string{line}})
}

// closeCur dispatches the event block under assembly, if any.
func (cr *refCorruptReader) closeCur() {
	if cr.cur == nil {
		return
	}
	b := *cr.cur
	cr.cur = nil
	cr.dispatch(b)
}

// dispatch is the structural stage: clock jumps and the swap lookahead.
// A block arriving while another is held is the held block's swap
// partner and is emitted first, skipping its own structural rolls —
// the same skip the in-place algorithm performs after a swap.
func (cr *refCorruptReader) dispatch(b refBlock) {
	if cr.held != nil {
		h := *cr.held
		cr.held = nil
		cr.emitBlock(b)
		cr.emitBlock(h)
		return
	}
	if b.event {
		if cr.in.roll(cr.in.rates.ClockJump) {
			cr.in.count("faults.clock_jump")
			jump := time.Duration(cr.in.rng.Intn(150_000)-30_000) * time.Millisecond
			b.setTime(b.at + jump)
		}
		if cr.in.roll(cr.in.rates.ReorderSwap) {
			cr.in.count("faults.reorder_swap")
			cr.held = &b
			return
		}
	}
	cr.emitBlock(b)
}

// emitBlock runs the restart hazard at the block boundary, rebases the
// clock when a restart has fired, then hands the block to the
// line-level stage.
func (cr *refCorruptReader) emitBlock(b refBlock) {
	if cr.emitIdx >= 1 && !cr.restartDone {
		if !cr.restartDecided {
			cr.restartDecided = true
			cr.restartArmed = cr.in.roll(cr.in.rates.Restart)
			if !cr.restartArmed {
				cr.restartDone = true
			}
		}
		if cr.restartArmed && cr.in.rng.Float64() < restartHazard {
			cr.in.count("faults.restart")
			cr.restartDone = true
			cr.rebase = true
			cr.emitLines(refBlock{lines: restartBanner})
			cr.emitIdx++
		}
	}
	if cr.rebase && b.event {
		if !cr.haveT0 {
			cr.haveT0 = true
			cr.t0 = b.at
		}
		b.setTime(b.at - cr.t0)
	}
	cr.emitLines(b)
	cr.emitIdx++
}

// emitLines is the line-level stage: per line, an optional interleaved
// foreign record, then drop / duplicate / garble.
func (cr *refCorruptReader) emitLines(b refBlock) {
	for _, line := range b.lines {
		if cr.in.roll(cr.in.rates.Interleave) {
			cr.in.count("faults.interleave")
			cr.writeLine(foreignLines[cr.in.rng.Intn(len(foreignLines))])
		}
		switch {
		case cr.in.roll(cr.in.rates.DropLine):
			cr.in.count("faults.drop_line")
			continue
		case cr.in.roll(cr.in.rates.DupLine):
			cr.in.count("faults.dup_line")
			cr.writeLine(line)
			cr.writeLine(line)
		case cr.in.roll(cr.in.rates.GarbleField):
			cr.in.count("faults.garble_field")
			cr.writeLine(cr.in.refGarble(line))
		default:
			cr.writeLine(line)
		}
	}
}

// writeLine emits one output line, '\n'-separated from its predecessor.
func (cr *refCorruptReader) writeLine(line string) {
	if cr.wroteLine {
		cr.writeByte('\n')
	}
	cr.wroteLine = true
	cr.writeBytes(line)
}

func (cr *refCorruptReader) writeByte(c byte) {
	cr.outTotal++
	if cr.holding {
		cr.hold = append(cr.hold, c)
		cr.spillHold()
	} else {
		cr.serve = append(cr.serve, c)
	}
}

func (cr *refCorruptReader) writeBytes(s string) {
	cr.outTotal += len(s)
	if cr.holding {
		cr.hold = append(cr.hold, s...)
		cr.spillHold()
	} else {
		cr.serve = append(cr.serve, s...)
	}
}

// spillHold keeps the hold-back window bounded: bytes beyond the
// truncation window can never be cut and are served immediately.
func (cr *refCorruptReader) spillHold() {
	if excess := len(cr.hold) - truncateHold; excess > 0 {
		cr.serve = append(cr.serve, cr.hold[:excess]...)
		cr.hold = append(cr.hold[:0], cr.hold[excess:]...)
	}
}

// finish flushes assembly state at EOF and applies the trailing-newline
// and truncation rules.
func (cr *refCorruptReader) finish() {
	if cr.done {
		return
	}
	cr.done = true
	cr.closeCur()
	if cr.held != nil {
		// A swap rolled on the final block has no partner; it stays in
		// place, as in the in-place algorithm.
		h := *cr.held
		cr.held = nil
		cr.emitBlock(h)
	}
	if cr.lastNL && cr.wroteLine {
		cr.writeByte('\n')
	}
	if cr.in.roll(cr.in.rates.Truncate) && cr.outTotal > 1 {
		cr.in.count("faults.truncate")
		cut := cr.outTotal/2 + cr.in.rng.Intn(cr.outTotal-cr.outTotal/2)
		if drop := cr.outTotal - cut; drop > 0 {
			if drop > len(cr.hold) {
				drop = len(cr.hold) // cut clamped to the held window
			}
			cr.hold = cr.hold[:len(cr.hold)-drop]
		}
	}
	cr.serve = append(cr.serve, cr.hold...)
	cr.hold = nil
}
