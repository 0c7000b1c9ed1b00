package faults

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"time"
)

// restartHazard is the per-boundary trigger probability once a restart
// has been armed. A streaming corruptor cannot pick a uniformly random
// boundary the way the whole-string algorithm did (the block count is
// unknown until EOF), so the restart is modeled as a hazard instead:
// one Restart-rate roll arms it at the first block boundary, then each
// boundary fires with this probability. For captures longer than a few
// dozen blocks the overall restart probability converges to the
// configured rate.
const restartHazard = 1.0 / 8

// truncateHold bounds the bytes held back when Truncate is enabled: the
// truncation point is only known at EOF, so the reader delays at most
// this much output. Captures larger than twice this bound may truncate
// slightly later than the whole-string algorithm would (the cut is
// clamped to the held window); the cut still lands in the second half.
const truncateHold = 1 << 20

// maxPooledBytes caps each buffer a finished reader returns to the
// pool, so one huge capture does not pin its window afterwards.
const maxPooledBytes = 4 << 20

// Reader wraps r with the injector's fault profile: records are
// corrupted block by block as they flow through. Corrupt is this
// reader drained into a string — the two are byte-identical for the
// same injector state.
//
// With Truncate > 0 the cut point is only known at EOF, so the reader
// holds back the last 1 MiB of its output until then. A capture below
// that size (a 5-minute run renders to about 185 KB) is held whole:
// its consumer reads the first byte only after r reaches EOF.
//
// The reader's buffers are pooled. They go back to the pool at the
// Read that returns io.EOF or r's error, and every later Read returns
// that result again. A reader abandoned before then is simply garbage.
//
// The reader consumes the injector's seeded RNG stream. Use a fresh
// injector (or accept that draws continue where the last corruption
// left off) when reproducibility matters.
func (in *Injector) Reader(r io.Reader) io.Reader {
	st := statePool.Get().(*readerState)
	st.in = in
	st.br.Reset(r)
	st.holding = in.rates.Truncate > 0
	return &corruptReader{st: st}
}

// corruptReader is the handle Reader returns: it owns a pooled
// readerState until the terminal Read, and only that Read's result
// afterwards.
type corruptReader struct {
	st  *readerState // nil once the terminal result has been returned
	end error        // the terminal result: io.EOF or the source's error
}

// statePool recycles the bufio window, the block storage and the
// output buffer across readers; at campaign scale they are the
// dominant allocations of the inject stage.
var statePool = sync.Pool{
	New: func() any { return &readerState{br: bufio.NewReaderSize(nil, 32*1024)} },
}

// Read serves corrupted bytes, advancing the state machine a line at a
// time until some are servable.
//
//loopvet:hot
func (cr *corruptReader) Read(p []byte) (int, error) {
	st := cr.st
	if st == nil {
		return 0, cr.end
	}
	for st.servePos == st.serveEnd() && !st.done {
		st.compact()
		st.step()
	}
	end := st.serveEnd()
	if st.servePos == end {
		cr.st, cr.end = nil, io.EOF
		if st.srcErr != nil {
			cr.end = st.srcErr
		}
		st.release()
		return 0, cr.end
	}
	n := copy(p, st.out[st.servePos:end])
	st.servePos += n
	return n, nil
}

// readerState is the streaming corruption state machine. Input lines
// are grouped into blocks; each completed block passes through the
// structural stage (clock jumps, a one-block swap lookahead, the
// restart hazard) and then the line-level stage, which appends to out.
// Read serves out from servePos up to serveEnd, which holds back the
// last truncateHold bytes until EOF when Truncate is enabled.
type readerState struct {
	in *Injector
	br *bufio.Reader

	lineBuf []byte // assembles a line longer than the bufio window
	readAny bool   // any input byte seen
	lastNL  bool   // most recent input line ended with '\n'
	srcEOF  bool
	srcErr  error // non-EOF input error, served after pending output

	cur      block  // event block under assembly, or the foreign line being dispatched
	held     block  // event block awaiting its swap partner
	haveCur  bool   // cur holds an event block under assembly
	haveHeld bool   // held is occupied
	aux      []byte // a restart banner line on its way through the line stage

	emitIdx        int // blocks emitted, in final order
	restartDecided bool
	restartArmed   bool
	restartDone    bool
	rebase         bool // restart fired: rebase event clocks
	haveT0         bool
	t0             time.Duration

	wroteLine bool   // separator bookkeeping: a '\n' precedes every line but the first
	out       []byte // output from byte `compacted` on: served, servable, then held
	servePos  int    // bytes of out already served
	compacted int    // served bytes dropped from the front of out
	holding   bool   // Truncate enabled and EOF not reached: hold back the window
	done      bool
}

// serveEnd is where the servable part of out ends: everything but the
// held window.
func (st *readerState) serveEnd() int {
	if !st.holding {
		return len(st.out)
	}
	return max(len(st.out)-truncateHold, 0)
}

// compact drops the served prefix of out before more output is made:
// at once when all of out was served, otherwise only when the prefix
// has reached the window's size. A held byte is therefore moved a
// bounded number of times, not once per line as the window slides.
func (st *readerState) compact() {
	switch {
	case st.servePos == len(st.out):
		st.out = st.out[:0]
	case st.servePos >= truncateHold:
		st.out = st.out[:copy(st.out, st.out[st.servePos:])]
	default:
		return
	}
	st.compacted += st.servePos
	st.servePos = 0
}

// release returns the state's buffers to the pool, emptied.
func (st *readerState) release() {
	st.br.Reset(nil)
	*st = readerState{
		br:      st.br,
		lineBuf: pooled(st.lineBuf),
		cur:     st.cur.emptied(),
		held:    st.held.emptied(),
		aux:     st.aux[:0],
		out:     pooled(st.out),
	}
	statePool.Put(st)
}

// pooled empties b for reuse, dropping it when it is too large to keep.
func pooled(b []byte) []byte {
	if cap(b) > maxPooledBytes {
		return nil
	}
	return b[:0]
}

// step consumes one input line (or finalizes at EOF), possibly
// producing served output.
//
//loopvet:hot
func (st *readerState) step() {
	if st.srcEOF {
		st.finish()
		return
	}
	line, sawNL, err := st.readLine()
	if err != nil && err != io.EOF {
		st.srcErr = err
		st.srcEOF = true
		st.finish()
		return
	}
	if err == io.EOF {
		st.srcEOF = true
		// EOF on a line boundary ends the input — unless the input was
		// entirely empty, which the split-based algorithm treats as one
		// empty line.
		if len(line) == 0 && !sawNL && st.readAny {
			st.finish()
			return
		}
	}
	st.readAny = true
	st.lastNL = sawNL
	st.feedLine(line)
	if st.srcEOF {
		st.finish()
	}
}

// readLine reads up to the next '\n' (exclusive). A line inside the
// bufio window is returned in place; a longer one is assembled in
// lineBuf, so line length is unbounded. The line is valid until the
// next readLine.
//
//loopvet:hot
func (st *readerState) readLine() (line []byte, sawNL bool, err error) {
	line, err = st.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		st.lineBuf = append(st.lineBuf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = st.br.ReadSlice('\n')
			st.lineBuf = append(st.lineBuf, line...)
		}
		line = st.lineBuf
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		return line[:n-1], true, nil
	}
	return line, false, err
}

// feedLine advances block assembly: headers open a new event block,
// indented or blank lines continue one, anything else is its own
// foreign block.
//
//loopvet:hot
func (st *readerState) feedLine(line []byte) {
	if at, ok := headerTime(line); ok {
		st.closeCur()
		st.cur.start(true, at)
		st.cur.add(line)
		st.haveCur = true
		return
	}
	indented := len(line) >= 2 && line[0] == ' ' && line[1] == ' '
	if st.haveCur && (indented || len(bytes.TrimSpace(line)) == 0) {
		st.cur.add(line)
		return
	}
	st.closeCur()
	st.cur.start(false, 0)
	st.cur.add(line)
	st.dispatch()
}

// closeCur dispatches the event block under assembly, if any.
func (st *readerState) closeCur() {
	if st.haveCur {
		st.haveCur = false
		st.dispatch()
	}
}

// dispatch is the structural stage for the block in cur: clock jumps
// and the swap lookahead. A block arriving while another is held is
// the held block's swap partner and is emitted first, skipping its own
// structural rolls — the same skip the in-place algorithm performs
// after a swap. A held block trades storage with cur, so nothing is
// copied.
func (st *readerState) dispatch() {
	if st.haveHeld {
		st.haveHeld = false
		st.emitBlock(&st.cur)
		st.emitBlock(&st.held)
		return
	}
	b := &st.cur
	if b.event {
		if st.in.roll(st.in.rates.ClockJump) {
			st.in.count("faults.clock_jump")
			jump := time.Duration(st.in.rng.Intn(150_000)-30_000) * time.Millisecond
			b.setTime(b.at + jump)
		}
		if st.in.roll(st.in.rates.ReorderSwap) {
			st.in.count("faults.reorder_swap")
			st.cur, st.held = st.held, st.cur
			st.haveHeld = true
			return
		}
	}
	st.emitBlock(b)
}

// emitBlock runs the restart hazard at the block boundary, rebases the
// clock when a restart has fired, then hands the block to the
// line-level stage.
func (st *readerState) emitBlock(b *block) {
	if st.emitIdx >= 1 && !st.restartDone {
		if !st.restartDecided {
			st.restartDecided = true
			st.restartArmed = st.in.roll(st.in.rates.Restart)
			if !st.restartArmed {
				st.restartDone = true
			}
		}
		if st.restartArmed && st.in.rng.Float64() < restartHazard {
			st.in.count("faults.restart")
			st.restartDone = true
			st.rebase = true
			for _, line := range restartBanner {
				st.aux = append(st.aux[:0], line...)
				st.emitLine(st.aux)
			}
			st.emitIdx++
		}
	}
	if st.rebase && b.event {
		if !st.haveT0 {
			st.haveT0 = true
			st.t0 = b.at
		}
		b.setTime(b.at - st.t0)
	}
	for i := range b.ends {
		st.emitLine(b.line(i))
	}
	st.emitIdx++
}

// emitLine is the line-level stage: an optional interleaved foreign
// record, then drop / duplicate / garble. A garbled line is scrambled
// in place; the line is not used again.
//
//loopvet:hot
func (st *readerState) emitLine(line []byte) {
	if st.in.roll(st.in.rates.Interleave) {
		st.in.count("faults.interleave")
		st.writeText(foreignLines[st.in.rng.Intn(len(foreignLines))])
	}
	switch {
	case st.in.roll(st.in.rates.DropLine):
		st.in.count("faults.drop_line")
	case st.in.roll(st.in.rates.DupLine):
		st.in.count("faults.dup_line")
		st.writeLine(line)
		st.writeLine(line)
	case st.in.roll(st.in.rates.GarbleField):
		st.in.count("faults.garble_field")
		st.in.garble(line)
		st.writeLine(line)
	default:
		st.writeLine(line)
	}
}

// writeLine appends one output line, '\n'-separated from its
// predecessor.
//
//loopvet:hot
func (st *readerState) writeLine(line []byte) {
	if st.wroteLine {
		st.out = append(st.out, '\n')
	}
	st.wroteLine = true
	st.out = append(st.out, line...)
}

// writeText is writeLine for the injector's own text.
//
//loopvet:hot
func (st *readerState) writeText(line string) {
	if st.wroteLine {
		st.out = append(st.out, '\n')
	}
	st.wroteLine = true
	st.out = append(st.out, line...)
}

// finish flushes assembly state at EOF, applies the trailing-newline
// and truncation rules, and releases the held window to Read in place.
func (st *readerState) finish() {
	if st.done {
		return
	}
	st.done = true
	st.closeCur()
	if st.haveHeld {
		// A swap rolled on the final block has no partner; it stays in
		// place, as in the in-place algorithm.
		st.haveHeld = false
		st.emitBlock(&st.held)
	}
	if st.lastNL && st.wroteLine {
		st.out = append(st.out, '\n')
	}
	total := st.compacted + len(st.out)
	if st.in.roll(st.in.rates.Truncate) && total > 1 {
		st.in.count("faults.truncate")
		cut := total/2 + st.in.rng.Intn(total-total/2)
		drop := min(total-cut, len(st.out)-st.serveEnd()) // cut clamped to the held window
		st.out = st.out[:len(st.out)-drop]
	}
	st.holding = false
}

// block is one event (header + indented details) or one foreign line.
// Its lines lie back to back in buf, line i ending at ends[i]; the
// reader reuses a block's storage from one block to the next.
type block struct {
	buf   []byte
	ends  []int
	at    time.Duration // header timestamp, valid when event
	event bool
}

// start empties the block for a new one, keeping its storage.
func (b *block) start(event bool, at time.Duration) {
	b.buf, b.ends, b.at, b.event = b.buf[:0], b.ends[:0], at, event
}

// add appends one line.
//
//loopvet:hot
func (b *block) add(line []byte) {
	b.buf = append(b.buf, line...)
	b.ends = append(b.ends, len(b.buf))
}

// line returns line i, a view into buf.
func (b *block) line(i int) []byte {
	lo := 0
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.buf[lo:b.ends[i]]
}

// emptied returns the block's storage, emptied for the pool.
func (b *block) emptied() block {
	return block{buf: pooled(b.buf), ends: b.ends[:0]}
}

// setTime rewrites the header timestamp (clamped at zero) in place,
// shifting the rest of the block when the clock's width changes.
func (b *block) setTime(t time.Duration) {
	if t < 0 {
		t = 0
	}
	b.at = t
	sp := bytes.IndexByte(b.line(0), ' ')
	if sp <= 0 {
		return
	}
	clk := formatClock(t)
	if d := len(clk) - sp; d != 0 {
		n := len(b.buf)
		if d > 0 {
			b.buf = append(b.buf, clk[:d]...) // grow; the bytes are overwritten below
		}
		copy(b.buf[sp+d:], b.buf[sp:n])
		b.buf = b.buf[:n+d]
		for i := range b.ends {
			b.ends[i] += d
		}
	}
	copy(b.buf, clk)
}
