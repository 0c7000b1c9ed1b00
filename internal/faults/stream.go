package faults

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"time"
)

// restartHazard is the per-boundary trigger probability once a restart
// has been armed: one Restart-rate roll arms it at the first block
// boundary, then each boundary fires with this probability. The restart
// therefore lands early in the capture, not at a uniformly random
// boundary: at Restart 1 on a 450-event capture (a 5-minute run), 2,000
// seeds put it after 6 blocks at the median, 17 at p90, 33 at p99 and
// 52 at most. For captures longer than a few dozen blocks the overall
// restart probability converges to the configured rate.
const restartHazard = 1.0 / 8

// truncateHold bounds the bytes a truncation removes: the cut lands in
// the second half of the output, but never more than this far from its
// end. Outputs larger than twice this bound may therefore be cut later
// than a uniform second-half cut would place them.
const truncateHold = 1 << 20

// maxPooledBytes caps each buffer a finished reader returns to the
// pool, so one huge capture does not pin its memory afterwards.
const maxPooledBytes = 4 << 20

// Reader wraps r with the injector's fault profile. At its first Read
// it reads r whole, corrupts the capture in one pass and then serves
// the result, so it holds both the capture and its corruption in
// memory. Corrupt is this reader drained into a string — the two are
// byte-identical for the same injector state.
//
// The reader's buffers are pooled. They go back to the pool at the
// Read that returns io.EOF or r's error, and every later Read returns
// that result again. A reader abandoned before then is simply garbage.
//
// The reader consumes the injector's seeded RNG stream. Use a fresh
// injector (or accept that draws continue where the last corruption
// left off) when reproducibility matters.
func (in *Injector) Reader(r io.Reader) io.Reader {
	return &corruptReader{in: in, src: r}
}

// corruptReader is the handle Reader returns: it reads its source at
// the first Read, owns a pooled readerState until the terminal Read,
// and only that Read's result afterwards.
type corruptReader struct {
	in  *Injector
	src io.Reader    // nil once read
	st  *readerState // nil before the first Read and after the terminal one
	end error        // the terminal result, once returned: io.EOF or the source's error
}

// statePool recycles the capture, output and line buffers across
// readers; at campaign scale they are the dominant allocations of the
// inject stage.
var statePool = sync.Pool{New: func() any { return new(readerState) }}

// Read serves the corrupted capture, running the corruption pass at the
// first call.
//
//loopvet:hot
func (cr *corruptReader) Read(p []byte) (int, error) {
	if cr.end != nil {
		return 0, cr.end
	}
	st := cr.st
	if st == nil {
		st = statePool.Get().(*readerState)
		st.run(cr.in, cr.src)
		cr.st, cr.src = st, nil
	}
	if st.pos == len(st.out) {
		cr.st, cr.end = nil, io.EOF
		if st.err != nil {
			cr.end = st.err
		}
		st.release()
		return 0, cr.end
	}
	n := copy(p, st.out[st.pos:])
	st.pos += n
	return n, nil
}

// readerState is one corruption pass over a whole capture. Input lines
// are grouped into blocks, views into src; each completed block passes
// through the structural stage (clock jumps, a one-block swap
// lookahead, the restart hazard) and then the line-level stage, which
// appends to out. Read serves out from pos.
type readerState struct {
	in   *Injector
	src  []byte // the capture, as read
	err  error  // the source's error other than io.EOF, served after out
	out  []byte // the corrupted capture
	pos  int    // bytes of out already served
	line []byte // a line the capture does not hold: a re-clocked header or a restart banner

	held     block // event block awaiting its swap partner
	haveHeld bool  // held is occupied

	emitIdx        int // blocks emitted, in final order
	restartDecided bool
	restartArmed   bool
	restartDone    bool
	rebase         bool // restart fired: rebase event clocks
	haveT0         bool
	t0             time.Duration

	wroteLine bool // separator bookkeeping: a '\n' precedes every line but the first
}

// run reads r whole and corrupts it into out. Its lines are those
// strings.Split finds, less the empty one after a trailing newline,
// which the output keeps; an empty capture is one empty line. If r
// fails, only the lines it delivered whole count, which may be none.
func (st *readerState) run(in *Injector, r io.Reader) {
	st.in = in
	st.src, st.err = readAll(st.src, r)
	st.out = slices.Grow(st.out, len(st.src)+len(st.src)/8) // faults add a few percent
	text := st.src
	if st.err != nil {
		text = text[:bytes.LastIndexByte(text, '\n')+1]
	}
	lastNL := len(text) > 0 && text[len(text)-1] == '\n'
	if lastNL {
		text = text[:len(text)-1]
	}
	if st.err == nil || lastNL {
		st.corrupt(text)
	}
	if lastNL && st.wroteLine {
		st.out = append(st.out, '\n')
	}
	total := len(st.out)
	if st.in.roll(st.in.rates.Truncate) && total > 1 {
		st.in.count("faults.truncate")
		cut := total/2 + st.in.rng.Intn(total-total/2)
		st.out = st.out[:total-min(total-cut, truncateHold)]
	}
}

// readAll appends r's bytes to buf until r ends, returning r's error
// other than io.EOF. Like bufio, it gives up with io.ErrNoProgress
// after 100 consecutive empty reads.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
	for empty := 0; empty < 100; {
		if len(buf) == cap(buf) {
			// Double from 32 KiB: append's 1.25× steps would make a fresh
			// buffer (the pool loses one now and then) cost several
			// times the capture's size in garbage.
			buf = slices.Grow(buf, max(len(buf), 32<<10))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		case n == 0:
			empty++
		default:
			empty = 0
		}
	}
	return buf, io.ErrNoProgress
}

// corrupt groups the lines of text, a prefix of src, into blocks and
// dispatches each as it completes: headers open a new event block,
// indented or blank lines continue one, anything else is its own
// foreign block.
//
//loopvet:hot
func (st *readerState) corrupt(text []byte) {
	var cur block // event block under assembly
	haveCur := false
	for lo, hi := 0, 0; lo <= len(text); lo = hi + 1 {
		hi = lineEnd(text, lo)
		line := text[lo:hi]
		if at, ok := headerTime(line); ok {
			if haveCur {
				st.dispatch(cur)
			}
			cur, haveCur = block{lo: lo, hi: hi, at: at, event: true}, true
			continue
		}
		indented := len(line) >= 2 && line[0] == ' ' && line[1] == ' '
		if haveCur && (indented || len(bytes.TrimSpace(line)) == 0) {
			cur.hi = hi
			continue
		}
		if haveCur {
			haveCur = false
			st.dispatch(cur)
		}
		st.dispatch(block{lo: lo, hi: hi})
	}
	if haveCur {
		st.dispatch(cur)
	}
	if st.haveHeld {
		// A swap rolled on the final block has no partner; it stays in
		// place, as in the in-place algorithm.
		st.haveHeld = false
		st.emitBlock(st.held)
	}
}

// lineEnd returns where the line of text starting at lo ends: at the
// next '\n', or at the end of text.
func lineEnd(text []byte, lo int) int {
	if i := bytes.IndexByte(text[lo:], '\n'); i >= 0 {
		return lo + i
	}
	return len(text)
}

// dispatch is the structural stage for block b: clock jumps and the
// swap lookahead. A block arriving while another is held is the held
// block's swap partner and is emitted first, skipping its own
// structural rolls — the same skip the in-place algorithm performs
// after a swap.
func (st *readerState) dispatch(b block) {
	if st.haveHeld {
		st.haveHeld = false
		st.emitBlock(b)
		st.emitBlock(st.held)
		return
	}
	if b.event {
		if st.in.roll(st.in.rates.ClockJump) {
			st.in.count("faults.clock_jump")
			jump := time.Duration(st.in.rng.Intn(150_000)-30_000) * time.Millisecond
			b.setTime(b.at + jump)
		}
		if st.in.roll(st.in.rates.ReorderSwap) {
			st.in.count("faults.reorder_swap")
			st.held, st.haveHeld = b, true
			return
		}
	}
	st.emitBlock(b)
}

// emitBlock runs the restart hazard at the block boundary, rebases the
// clock when a restart has fired, then hands the block's lines to the
// line-level stage, its header re-clocked if its time moved.
func (st *readerState) emitBlock(b block) {
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
				st.line = append(st.line[:0], line...)
				st.emitLine(st.line)
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
	text := st.src[b.lo:b.hi]
	for lo, hi := 0, 0; lo <= len(text); lo = hi + 1 {
		hi = lineEnd(text, lo)
		line := text[lo:hi]
		if lo == 0 && b.moved {
			// headerTime accepted the header, so a space ends its clock.
			clk := formatClock(b.at)
			st.line = append(append(st.line[:0], clk...), line[bytes.IndexByte(line, ' '):]...)
			line = st.line
		}
		st.emitLine(line)
	}
	st.emitIdx++
}

// emitLine is the line-level stage: an optional interleaved foreign
// record, then drop / duplicate / garble. A garbled line is scrambled
// in the output; line itself is not modified.
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
		st.writeLine(line)
		st.in.garble(st.out[len(st.out)-len(line):])
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

// release returns the state's buffers to the pool, emptied.
func (st *readerState) release() {
	*st = readerState{src: pooled(st.src), out: pooled(st.out), line: pooled(st.line)}
	statePool.Put(st)
}

// pooled empties b for reuse, dropping it when it is too large to keep.
func pooled(b []byte) []byte {
	if cap(b) > maxPooledBytes {
		return nil
	}
	return b[:0]
}

// block is one event (header + indented details) or one foreign line:
// whole lines of the capture, src[lo:hi], the last without its '\n'.
type block struct {
	lo, hi int
	at     time.Duration // header timestamp, valid when event
	event  bool
	moved  bool // at was rewritten: the header is emitted re-clocked
}

// setTime rewrites the header timestamp, clamped at zero.
func (b *block) setTime(t time.Duration) {
	b.at, b.moved = max(t, 0), true
}
