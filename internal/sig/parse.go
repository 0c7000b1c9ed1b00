package sig

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// ParseError reports a malformed log line with its position.
type ParseError struct {
	Line int
	Text string
	Err  error
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("sig: line %d: %v (%q)", e.Line, e.Err, e.Text)
}

// Unwrap returns the underlying cause.
func (e *ParseError) Unwrap() error { return e.Err }

// maxLineBytes caps a single log line; anything longer is a capture
// artifact (binary junk flushed into the text stream), never a valid
// record.
const maxLineBytes = 4 * 1024 * 1024

// ErrLineTooLong marks a line exceeding maxLineBytes. Strict Parse
// wraps it in a ParseError carrying the line number and a prefix of the
// offender; lenient parsing skips the line and resyncs.
var ErrLineTooLong = errors.New("line exceeds 4 MiB limit")

// maxSalvageErrors bounds the detail kept per salvage report; the
// counters keep counting past the cap.
const maxSalvageErrors = 64

// Salvage reports what lenient parsing kept and what it had to discard
// from a damaged capture.
type Salvage struct {
	// EventsKept is the number of events recovered into the Log (or
	// delivered to the sink, for ParseTo).
	EventsKept int
	// RecordsDropped counts recognized records whose details failed to
	// build a message and were quarantined.
	RecordsDropped int
	// LinesSkipped counts discarded lines: foreign/unrecognized
	// records, orphaned detail lines and oversized lines.
	LinesSkipped int
	// Errors holds the first maxSalvageErrors quarantine causes.
	Errors []*ParseError
}

// note files a quarantine cause, respecting the detail cap.
func (s *Salvage) note(pe *ParseError) {
	if len(s.Errors) < maxSalvageErrors {
		s.Errors = append(s.Errors, pe)
	}
}

// Clean reports whether the capture parsed without any salvage action.
func (s *Salvage) Clean() bool { return s.RecordsDropped == 0 && s.LinesSkipped == 0 }

// KeptRatio is the share of recognized records that survived.
func (s *Salvage) KeptRatio() float64 {
	total := s.EventsKept + s.RecordsDropped
	if total == 0 {
		return 1
	}
	return float64(s.EventsKept) / float64(total)
}

// Summary renders the one-line salvage report loopctl prints.
func (s *Salvage) Summary() string {
	return fmt.Sprintf("salvage: %d events kept, %d records dropped, %d lines skipped (%.1f%% of records recovered)",
		s.EventsKept, s.RecordsDropped, s.LinesSkipped, 100*s.KeptRatio())
}

// Parse reads an NSG-style log back into a Log. Lines that are neither
// a recognizable header nor an indented detail line are skipped (real
// captures interleave unrelated records); malformed details of a
// recognized message are an error.
func Parse(r io.Reader) (*Log, error) {
	log, _, err := parseLog(r, false, nil)
	return log, err
}

// ParseObserved is Parse with parsing counters (lines read, lines
// skipped, oversized-line hits, events kept) flushed into c when the
// parse completes. A nil collector makes it exactly Parse: the per-line
// hot loop never consults the collector, so observability costs nothing
// until the final flush.
func ParseObserved(r io.Reader, c obs.Collector) (*Log, error) {
	log, _, err := parseLog(r, false, c)
	return log, err
}

// ParseLenientObserved reads a possibly corrupted NSG-style log,
// quarantining malformed records instead of aborting: a record whose
// details fail to build is dropped into the Salvage report and parsing
// resyncs at the next header. The error is non-nil only when the reader
// itself fails; arbitrary text content never errors. Parsing counters
// flush into c when the parse completes; c may be nil.
func ParseLenientObserved(r io.Reader, c obs.Collector) (*Log, *Salvage, error) {
	return parseLog(r, true, c)
}

// ParseTo parses in either mode, delivering every kept event to sink,
// in capture order, the moment it is parsed, instead of collecting a
// Log. This is the incremental-extraction hook: campaign runs and
// loopctl hand it a trace.Builder and the timeline is built during the
// parse pass. sink sees exactly the events ParseObserved (strict) or
// ParseLenientObserved (lenient) would keep, and Salvage.EventsKept
// counts them. A strict parse stops at the first malformed record and
// returns that record's *ParseError, the error Parse returns, after
// sink has seen the events before it.
func ParseTo(r io.Reader, lenient bool, c obs.Collector, sink Sink) (*Salvage, error) {
	return parse(r, lenient, c, sink)
}

// parseLog is parse collecting into a fresh Log.
func parseLog(r io.Reader, lenient bool, c obs.Collector) (*Log, *Salvage, error) {
	log := &Log{Events: make([]Event, 0, 256)}
	sal, err := parse(r, lenient, c, log)
	if err != nil {
		return nil, nil, err
	}
	return log, sal, nil
}

// parse is the shared strict/lenient parsing loop over a pooled []byte
// parser, delivering each kept event to sink. Counters accumulate in
// locals and flush into c once at the end, keeping the per-line path
// free of interface calls; a parse aborted by an error flushes nothing.
//
// The per-line path performs no allocations: lines are zero-copy views
// from the lineScanner, the current record accumulates in the parser's
// reused arena, repeated tokens (cell-identity lines, measConfig
// bodies, roles, causes, MM states) resolve through interning tables,
// and measurement reports are built in one reused entries buffer (see
// Sink), most of their lines decoded into it as they are scanned (see
// addMeasResult). What remains is the per-event cost of the result
// itself — interface boxing of each message and the slices of
// reconfigurations.
//
//loopvet:hot
func parse(r io.Reader, lenient bool, c obs.Collector, sink Sink) (*Salvage, error) {
	p := acquireParser(r)
	defer p.release()
	sal := &Salvage{}
	var (
		lineNum   int
		oversized int
	)
	flush := func() error {
		if !p.hasCur {
			return nil
		}
		msg, err := p.buildMessage()
		if err != nil {
			pe := quarantineError(p.cur.line, p.arena[p.cur.header.s:p.cur.header.e], err)
			p.hasCur = false
			if !lenient {
				return pe
			}
			sal.RecordsDropped++
			sal.note(pe)
			return nil
		}
		sink.Append(p.cur.at, msg)
		sal.EventsKept++
		p.hasCur = false
		return nil
	}
	for {
		line, tooLong, err := p.sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err // reader failure, not capture damage
		}
		lineNum++
		if tooLong {
			oversized++
			pe := oversizedError(lineNum, line)
			if !lenient {
				return nil, pe
			}
			// An oversized indented line claims to belong to the
			// current record: its content is untrustworthy, so the
			// record is quarantined and parsing resyncs at the next
			// header. An oversized foreign line is just skipped.
			sal.LinesSkipped++
			sal.note(pe)
			if p.hasCur && len(line) >= 2 && line[0] == ' ' && line[1] == ' ' {
				sal.RecordsDropped++
				p.hasCur = false
			}
			continue
		}
		if isBlank(line) {
			continue
		}
		if len(line) >= 2 && line[0] == ' ' && line[1] == ' ' {
			if p.hasCur {
				lo, hi := trimSpaceRange(line, 0, len(line))
				if p.cur.report {
					p.addMeasResult(line[lo:hi])
				} else {
					p.addDetail(line[lo:hi])
				}
			} else if lenient {
				sal.LinesSkipped++ // orphaned detail, nothing to attach to
			}
			continue
		}
		hdr, ok := parseHeaderB(line)
		if !ok {
			if lenient {
				sal.LinesSkipped++
			}
			continue // foreign record; tolerate
		}
		if err := flush(); err != nil {
			return nil, err
		}
		p.startEvent(line, hdr, lineNum)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if c != nil {
		c.Add("sig.lines.read", int64(lineNum))
		c.Add("sig.lines.oversized", int64(oversized))
		c.Add("sig.lines.skipped", int64(sal.LinesSkipped))
		c.Add("sig.records.dropped", int64(sal.RecordsDropped))
		c.Add("sig.events.kept", int64(sal.EventsKept))
		c.Observe("sig.events.count", float64(sal.EventsKept))
	}
	return sal, nil
}

// quarantineError materializes a ParseError for a record whose details
// failed to build. Cold path: the copies here happen only on damaged
// records, never per line.
func quarantineError(line int, header []byte, err error) *ParseError {
	return &ParseError{Line: line, Text: string(header), Err: err}
}

// oversizedError materializes the ParseError for a line over the cap,
// carrying the same 80-byte prefix the string parser reported.
func oversizedError(line int, text []byte) *ParseError {
	n := 80
	if len(text) < n {
		n = len(text) // unreachable with the 4 MiB production cap
	}
	return &ParseError{Line: line, Text: string(text[:n]) + "…", Err: ErrLineTooLong}
}

// span is a half-open byte range into the parser arena. Offsets, not
// slices: the arena may be reallocated by append while a record is
// still accumulating.
type span struct{ s, e int }

// rawEvent is the staged header of the record currently accumulating:
// its parsed time/RAT plus arena spans for the header line and kind.
// report marks a MeasurementReport, whose measResult lines decode as
// they are scanned, and staged that one of them missed the fast path,
// so it and every later line go to the arena (see addMeasResult).
// One instance lives inside the pooled parser and is reused for every
// record — the "free list" is of size one because a record is always
// fully consumed (built or quarantined) before the next header starts.
type rawEvent struct {
	at     time.Duration
	rat    band.RAT
	line   int
	header span
	kind   span
	report bool
	staged bool
}

// headerInfo is a recognized header before its line is copied into the
// arena: kind offsets are relative to the scanned line (kindS < 0
// flags the synthetic EXCEPTION kind, which has no span in the line).
type headerInfo struct {
	at           time.Duration
	rat          band.RAT
	kindS, kindE int
}

// eofReader is what pooled parsers point at between uses, so the pool
// never pins a caller's reader (or the write end of a campaign pipe).
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// maxRetainedBuf caps how much scratch a pooled parser keeps alive: a
// capture with a near-4MiB junk line shouldn't turn into 4 MiB pinned
// per pool slot forever.
const maxRetainedBuf = 1 << 20

// maxRetainedEntries is maxRetainedBuf counted in measurement entries,
// the cap on the entries buffer a pooled parser keeps.
const maxRetainedEntries = maxRetainedBuf / int(unsafe.Sizeof(rrc.MeasEntry{}))

// maxMemoEntries bounds each interning table; pathological captures
// with millions of distinct cell lines stop interning rather than grow
// without limit. Lookups still work — only inserts stop.
const maxMemoEntries = 4096

// parser is the pooled per-parse state: the zero-copy line scanner, the
// per-record arena with its detail spans, the entries buffer every
// measurement report is built in, and the interning tables. The arena
// holds the record's header, a non-report record's details and the
// lines a report stages after its first fast-path miss; a report's
// canonical measResult lines go straight into the entries buffer.
// The memo tables cache only pure line→value parse results, so keeping
// them across parses (and across pool users) can never change output —
// it only skips rescans of lines already seen in earlier captures.
type parser struct {
	br       *bufio.Reader
	sc       lineScanner
	arena    []byte          // current record's copied bytes
	spans    []span          // detail ranges into arena
	dviews   [][]byte        // scratch for materialized detail views
	entries  []rrc.MeasEntry // the report being built; lent to the sink
	cur      rawEvent
	hasCur   bool
	cellMemo map[string]cell.Ref
	measMemo map[string]rrc.MeasObject
}

// parserPool recycles parser state across Parse calls; at campaign
// scale the scanner window, arena and memo tables are the dominant
// would-be allocations of the parse side.
var parserPool = sync.Pool{
	New: func() any {
		return &parser{
			br:       bufio.NewReaderSize(eofReader{}, 64*1024),
			cellMemo: make(map[string]cell.Ref),
			measMemo: make(map[string]rrc.MeasObject),
		}
	},
}

// acquireParser checks a parser out of the pool, pointed at r.
func acquireParser(r io.Reader) *parser {
	p := parserPool.Get().(*parser)
	p.br.Reset(r)
	p.sc = lineScanner{br: p.br, max: maxLineBytes, buf: p.sc.buf}
	p.hasCur = false
	return p
}

// release returns the parser to the pool, dropping the caller's reader
// and any oversized scratch.
func (p *parser) release() {
	p.br.Reset(eofReader{})
	if cap(p.sc.buf) > maxRetainedBuf {
		p.sc.buf = nil
	}
	if cap(p.arena) > maxRetainedBuf {
		p.arena = nil
	}
	if cap(p.entries) > maxRetainedEntries {
		p.entries = nil
	}
	p.entries = p.entries[:0]
	p.arena = p.arena[:0]
	p.spans = p.spans[:0]
	clear(p.dviews[:cap(p.dviews)]) // drop view refs so the old arena can be collected
	p.dviews = p.dviews[:0]
	p.hasCur = false
	parserPool.Put(p)
}

// startEvent begins accumulating a new record: the header line is
// copied into the reset arena (the scanner view dies at the next line)
// and the kind span is carried over — or the synthetic EXCEPTION kind
// appended — so buildMessage can dispatch without re-parsing. The
// entries buffer empties too: the previous report was delivered by the
// flush before this call, so the sink no longer holds it.
//
//loopvet:hot
func (p *parser) startEvent(line []byte, h headerInfo, lineNum int) {
	p.arena = p.arena[:0]
	p.spans = p.spans[:0]
	p.entries = p.entries[:0]
	p.arena = append(p.arena, line...)
	p.cur = rawEvent{at: h.at, rat: h.rat, line: lineNum,
		header: span{0, len(line)}, kind: span{h.kindS, h.kindE}}
	if h.kindS < 0 {
		p.arena = append(p.arena, "EXCEPTION"...)
		p.cur.kind = span{len(line), len(p.arena)}
	} else {
		p.cur.report = string(line[h.kindS:h.kindE]) == "MeasurementReport"
	}
	p.hasCur = true
}

// addDetail appends one trimmed detail line to the current record's
// arena.
//
//loopvet:hot
func (p *parser) addDetail(trimmed []byte) {
	s := len(p.arena)
	p.arena = append(p.arena, trimmed...)
	p.spans = append(p.spans, span{s, len(p.arena)})
}

// addMeasResult takes one trimmed detail line of a measurement report.
// Each line decodes straight into the entries buffer, uncopied, until
// one misses scanMeasResultB; that line and every later one are staged
// in the arena for buildMeasReport's per-field loop, which appends
// after the decoded entries. So the entries stay in line order, and the
// first error is the one the loop alone would return. A line without
// the measResult prefix is dropped: buildMeasReport skips it anyway.
//
//loopvet:hot
func (p *parser) addMeasResult(d []byte) {
	if !p.cur.staged {
		if e, ok := scanMeasResultB(d); ok {
			p.entries = append(p.entries, e)
			return
		}
	}
	if !bytes.HasPrefix(d, prefMeasResult) {
		return
	}
	p.cur.staged = true
	p.addDetail(d)
}

// detailViews materializes the detail spans as slices; the arena is
// stable for the duration of buildMessage (nothing appends to it while
// a record is being built).
//
//loopvet:hot
func (p *parser) detailViews() [][]byte {
	v := p.dviews[:0]
	for _, sp := range p.spans {
		v = append(v, p.arena[sp.s:sp.e])
	}
	p.dviews = v
	return v
}

var (
	sepRRCPacket = []byte(" RRC OTA Packet -- ")
	sepSlash     = []byte(" / ")
)

// parseHeaderB recognizes "<ts> NR5G RRC OTA Packet -- <CH> / <Kind>"
// and "<ts> SYS -- EXCEPTION" without allocating, preserving the
// string parser's exact field semantics (including the quirk that the
// tail is sliced at len(fields[0]) from the line start, so a header
// with leading white space shifts the tail window).
//
//loopvet:hot
func parseHeaderB(line []byte) (headerInfo, bool) {
	first, enough := fieldsInfo(line)
	if !enough {
		return headerInfo{}, false
	}
	at, ok := parseTimestampB(first)
	if !ok {
		return headerInfo{}, false
	}
	restLo, restHi := trimSpaceRange(line, len(first), len(line))
	rest := line[restLo:restHi]
	if string(rest) == "SYS -- EXCEPTION" {
		return headerInfo{at: at, rat: band.RATNR, kindS: -1, kindE: -1}, true
	}
	idx := bytes.Index(rest, sepRRCPacket)
	if idx < 0 {
		return headerInfo{}, false
	}
	var rat band.RAT
	switch string(rest[:idx]) {
	case "NR5G":
		rat = band.RATNR
	case "LTE":
		rat = band.RATLTE
	default:
		return headerInfo{}, false
	}
	afterLo := restLo + idx + len(sepRRCPacket)
	j := bytes.Index(line[afterLo:restHi], sepSlash)
	if j < 0 {
		return headerInfo{}, false
	}
	kLo, kHi := trimSpaceRange(line, afterLo+j+len(sepSlash), restHi)
	return headerInfo{at: at, rat: rat, kindS: kLo, kindE: kHi}, true
}

// buildMessage converts the accumulated record into a typed message.
// Dispatching through switch string(kind) is allocation-free (the
// compiler recognizes the conversion in switch-tag position).
//
//loopvet:hot
func (p *parser) buildMessage() (rrc.Message, error) {
	details := p.detailViews()
	kind := p.arena[p.cur.kind.s:p.cur.kind.e]
	switch string(kind) {
	case "MIB":
		ref, err := p.findCellLine(details)
		if err != nil {
			return nil, err
		}
		return rrc.MIB{Rat: p.cur.rat, Cell: ref}, nil
	case "SIB1":
		return p.buildSIB1(details)
	case "RRCSetupRequest", "RRCConnectionSetupRequest":
		ref, err := p.findCellLine(details)
		if err != nil {
			return nil, err
		}
		return rrc.SetupRequest{Rat: p.cur.rat, Cell: ref}, nil
	case "RRCSetup", "RRCConnectionSetup":
		ref, err := p.findCellLine(details)
		if err != nil {
			return nil, err
		}
		return rrc.Setup{Rat: p.cur.rat, Cell: ref}, nil
	case "RRCSetupComplete", "RRCConnectionSetupComplete":
		ref, err := p.findCellLine(details)
		if err != nil {
			return nil, err
		}
		return rrc.SetupComplete{Rat: p.cur.rat, Cell: ref}, nil
	case "RRCReconfiguration", "RRCConnectionReconfiguration":
		return p.buildReconfig(details)
	case "RRCReconfigurationComplete", "RRCConnectionReconfigurationComplete":
		return rrc.ReconfigComplete{Rat: p.cur.rat}, nil
	case "MeasurementReport":
		return p.buildMeasReport(details)
	case "SCGFailureInformationNR":
		for _, d := range details {
			if v, ok := bytes.CutPrefix(d, prefFailureType); ok {
				lo, hi := trimSpaceRange(v, 0, len(v))
				return rrc.SCGFailureInfo{FailureType: internCause(v[lo:hi])}, nil
			}
		}
		return nil, errNoFailureType
	case "RRCConnectionReestablishmentRequest":
		for _, d := range details {
			if v, ok := bytes.CutPrefix(d, prefReestCause); ok {
				lo, hi := trimSpaceRange(v, 0, len(v))
				return rrc.ReestablishmentRequest{Cause: internReestCause(v[lo:hi])}, nil
			}
		}
		return nil, errNoReestCause
	case "RRCConnectionReestablishmentComplete":
		ref, err := p.findCellLine(details)
		if err != nil {
			return nil, err
		}
		return rrc.ReestablishmentComplete{Cell: ref}, nil
	case "RRCRelease", "RRCConnectionRelease":
		return rrc.Release{Rat: p.cur.rat}, nil
	case "EXCEPTION":
		return buildException(details), nil
	default:
		return nil, unknownKindError(kind)
	}
}

func unknownKindError(kind []byte) error {
	return fmt.Errorf("unknown message kind %q", kind)
}

var (
	prefCellLine    = []byte("Physical Cell ID = ")
	prefThreshRSRP  = []byte("selectionThreshRSRP = ")
	prefFailureType = []byte("failureType ")
	prefReestCause  = []byte("reestablishmentCause ")
	prefMM5G        = []byte("MM5G State = ")
	prefAddMod      = []byte("sCellToAddModList ")
	prefReleaseList = []byte("sCellToReleaseList {")
	prefSpCell      = []byte("spCellConfig {")
	prefScgSCell    = []byte("scgSCell {")
	litScgRelease   = []byte("scg-Release {}")
	prefMobility    = []byte("mobilityControlInfo {")
	prefMeasConfig  = []byte("measConfig {")
	prefMeasResult  = []byte("measResult {")
)

var (
	errMissingCellLine = errors.New("missing Physical Cell ID line")
	errNoFailureType   = errors.New("SCGFailureInformationNR without failureType")
	errNoReestCause    = errors.New("reestablishment request without cause")
)

// buildSIB1 parses the cell identity plus the reselection threshold.
//
//loopvet:hot
func (p *parser) buildSIB1(details [][]byte) (rrc.Message, error) {
	ref, err := p.findCellLine(details)
	if err != nil {
		return nil, err
	}
	m := rrc.SIB1{Rat: p.cur.rat, Cell: ref}
	for _, d := range details {
		if v, ok := bytes.CutPrefix(d, prefThreshRSRP); ok {
			lo, hi := trimSpaceRange(v, 0, len(v))
			f, ok := scanFloatB(v[lo:hi])
			if !ok {
				f, err = parseFloatSlow(v[lo:hi])
				if err != nil {
					return nil, badThreshError(err)
				}
			}
			m.ThreshRSRPDBm = units.DBm(f)
		}
	}
	return m, nil
}

func badThreshError(err error) error {
	return fmt.Errorf("bad selectionThreshRSRP: %w", err)
}

// parseFloatSlow is the strconv fallback for floats outside the exact
// fast-path subset; its error text is the old parser's error text.
func parseFloatSlow(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
}

// findCellLine extracts "Physical Cell ID = P, Freq = C", accepting the
// NR form that carries the Cell Global ID between the two fields.
// Successful lines intern through cellMemo, so a capture camping on one
// cell resolves every sighting with a single map probe.
//
//loopvet:hot
func (p *parser) findCellLine(details [][]byte) (cell.Ref, error) {
	for _, d := range details {
		if !bytes.HasPrefix(d, prefCellLine) {
			continue
		}
		if ref, ok := p.cellMemo[string(d)]; ok {
			return ref, nil
		}
		ref, ok := scanCellLine(d)
		if !ok {
			var err error
			ref, err = findCellLineSlow(d)
			if err != nil {
				return cell.Ref{}, err
			}
		}
		p.memoCell(d, ref)
		return ref, nil
	}
	return cell.Ref{}, errMissingCellLine
}

// memoCell interns a successfully parsed cell-identity line. The key
// copy is the one allocation, paid once per distinct line per pooled
// parser.
func (p *parser) memoCell(d []byte, ref cell.Ref) {
	if len(p.cellMemo) >= maxMemoEntries {
		return
	}
	p.cellMemo[string(d)] = ref
}

// scanCellLine is the canonical fast path for both cell-line forms.
//
//loopvet:hot
func scanCellLine(d []byte) (cell.Ref, bool) {
	pos, ok := matchLit(d, 0, "Physical Cell ID = ")
	if !ok {
		return cell.Ref{}, false
	}
	pci, pos, ok := scanIntB(d, pos)
	if !ok {
		return cell.Ref{}, false
	}
	// NR form first, mirroring the Sscanf attempt order.
	if nrPos, ok := matchLit(d, pos, ", NR Cell Global ID = "); ok {
		if _, cgPos, ok := scanUintB(d, nrPos); ok {
			if fqPos, ok := matchLit(d, cgPos, ", Freq = "); ok {
				if ch, _, ok := scanIntB(d, fqPos); ok {
					return cell.Ref{PCI: pci, Channel: ch}, true
				}
			}
		}
		// The NR marker is present but non-canonical; let the slow
		// path decide (the short form cannot match this input).
		return cell.Ref{}, false
	}
	fqPos, ok := matchLit(d, pos, ", Freq = ")
	if !ok {
		return cell.Ref{}, false
	}
	ch, _, ok := scanIntB(d, fqPos)
	if !ok {
		return cell.Ref{}, false
	}
	return cell.Ref{PCI: pci, Channel: ch}, true
}

// findCellLineSlow is the old Sscanf cell-line parser on a materialized
// copy, error text included.
func findCellLineSlow(db []byte) (cell.Ref, error) {
	d := string(db)
	var pci, ch int
	var cgi uint64
	if _, err := fmt.Sscanf(d, "Physical Cell ID = %d, NR Cell Global ID = %d, Freq = %d",
		&pci, &cgi, &ch); err == nil {
		return cell.Ref{PCI: pci, Channel: ch}, nil
	}
	if _, err := fmt.Sscanf(d, "Physical Cell ID = %d, Freq = %d", &pci, &ch); err != nil {
		return cell.Ref{}, fmt.Errorf("bad cell line %q: %w", d, err)
	}
	return cell.Ref{PCI: pci, Channel: ch}, nil
}

// buildReconfig parses every reconfiguration field.
//
//loopvet:hot
func (p *parser) buildReconfig(details [][]byte) (rrc.Message, error) {
	serving, err := p.findCellLine(details)
	if err != nil {
		return nil, err
	}
	m := rrc.Reconfig{Rat: p.cur.rat, Serving: serving}
	for _, d := range details {
		switch {
		case bytes.HasPrefix(d, prefAddMod):
			idx, pci, ch, ok := scanBraced3(d, "sCellToAddModList {sCellIndex ", ", physCellId ", ", absoluteFrequencySSB ")
			if !ok {
				var err error
				idx, pci, ch, err = scanAddModSlow(d)
				if err != nil {
					return nil, err
				}
			}
			m.AddSCells = append(m.AddSCells, rrc.SCellEntry{Index: idx, Cell: cell.Ref{PCI: pci, Channel: ch}})
		case bytes.HasPrefix(d, prefReleaseList):
			body := cutBraceBody(d, len(prefReleaseList))
			rest := body
			for {
				var tok []byte
				i := bytes.IndexByte(rest, ',')
				last := i < 0
				if last {
					tok = rest
				} else {
					tok, rest = rest[:i], rest[i+1:]
				}
				lo, hi := trimSpaceRange(tok, 0, len(tok))
				tok = tok[lo:hi]
				if len(tok) > 0 {
					idx, ok := scanAtoiB(tok)
					if !ok {
						var err error
						idx, err = releaseTokSlow(d, tok)
						if err != nil {
							return nil, err
						}
					}
					m.ReleaseSCells = append(m.ReleaseSCells, idx)
				}
				if last {
					break
				}
			}
		case bytes.HasPrefix(d, prefSpCell):
			pci, ch, ok := scanBraced2(d, "spCellConfig {physCellId ", ", ssbFrequency ")
			if !ok {
				var err error
				pci, ch, err = scanPairSlow(d, "spCellConfig {physCellId %d, ssbFrequency %d}", "bad spCellConfig")
				if err != nil {
					return nil, err
				}
			}
			ref := cell.Ref{PCI: pci, Channel: ch}
			m.SpCell = &ref
		case bytes.HasPrefix(d, prefScgSCell):
			pci, ch, ok := scanBraced2(d, "scgSCell {physCellId ", ", ssbFrequency ")
			if !ok {
				var err error
				pci, ch, err = scanPairSlow(d, "scgSCell {physCellId %d, ssbFrequency %d}", "bad scgSCell")
				if err != nil {
					return nil, err
				}
			}
			m.SCGSCells = append(m.SCGSCells, cell.Ref{PCI: pci, Channel: ch})
		case bytes.Equal(d, litScgRelease):
			m.SCGRelease = true
		case bytes.HasPrefix(d, prefMobility):
			pci, ch, ok := scanBraced2(d, "mobilityControlInfo {targetPhysCellId ", ", dl-CarrierFreq ")
			if !ok {
				var err error
				pci, ch, err = scanPairSlow(d, "mobilityControlInfo {targetPhysCellId %d, dl-CarrierFreq %d}", "bad mobilityControlInfo")
				if err != nil {
					return nil, err
				}
			}
			ref := cell.Ref{PCI: pci, Channel: ch}
			m.Mobility = &ref
		case bytes.HasPrefix(d, prefMeasConfig):
			mo, err := p.measObject(cutBraceBody(d, len(prefMeasConfig)))
			if err != nil {
				return nil, err
			}
			m.MeasConfig = append(m.MeasConfig, mo)
		}
	}
	return m, nil
}

// cutBraceBody strips the already-matched "name {" prefix and one
// trailing "}" if present (strings.TrimSuffix semantics).
//
//loopvet:hot
func cutBraceBody(d []byte, prefixLen int) []byte {
	body := d[prefixLen:]
	if n := len(body); n > 0 && body[n-1] == '}' {
		body = body[:n-1]
	}
	return body
}

// scanBraced2 is the canonical fast path for "<l1><int><l2><int>}".
//
//loopvet:hot
func scanBraced2(d []byte, l1, l2 string) (a, b int, ok bool) {
	pos, ok := matchLit(d, 0, l1)
	if !ok {
		return 0, 0, false
	}
	a, pos, ok = scanIntB(d, pos)
	if !ok {
		return 0, 0, false
	}
	pos, ok = matchLit(d, pos, l2)
	if !ok {
		return 0, 0, false
	}
	b, pos, ok = scanIntB(d, pos)
	if !ok {
		return 0, 0, false
	}
	_, ok = matchLit(d, pos, "}")
	return a, b, ok
}

// scanBraced3 is the canonical fast path for
// "<l1><int><l2><int><l3><int>}".
//
//loopvet:hot
func scanBraced3(d []byte, l1, l2, l3 string) (a, b, c int, ok bool) {
	pos, ok := matchLit(d, 0, l1)
	if !ok {
		return 0, 0, 0, false
	}
	a, pos, ok = scanIntB(d, pos)
	if !ok {
		return 0, 0, 0, false
	}
	pos, ok = matchLit(d, pos, l2)
	if !ok {
		return 0, 0, 0, false
	}
	b, pos, ok = scanIntB(d, pos)
	if !ok {
		return 0, 0, 0, false
	}
	pos, ok = matchLit(d, pos, l3)
	if !ok {
		return 0, 0, 0, false
	}
	c, pos, ok = scanIntB(d, pos)
	if !ok {
		return 0, 0, 0, false
	}
	_, ok = matchLit(d, pos, "}")
	return a, b, c, ok
}

// scanAddModSlow is the old Sscanf sCellToAddModList parser on a
// materialized copy.
func scanAddModSlow(db []byte) (idx, pci, ch int, err error) {
	d := string(db)
	if _, serr := fmt.Sscanf(d, "sCellToAddModList {sCellIndex %d, physCellId %d, absoluteFrequencySSB %d}",
		&idx, &pci, &ch); serr != nil {
		return 0, 0, 0, fmt.Errorf("bad sCellToAddModList %q: %w", d, serr)
	}
	return idx, pci, ch, nil
}

// scanPairSlow is the old Sscanf two-int parser on a materialized copy.
func scanPairSlow(db []byte, format, what string) (a, b int, err error) {
	d := string(db)
	if _, serr := fmt.Sscanf(d, format, &a, &b); serr != nil {
		return 0, 0, fmt.Errorf("%s %q: %w", what, d, serr)
	}
	return a, b, nil
}

// releaseTokSlow is the strconv.Atoi fallback for release-list tokens.
func releaseTokSlow(d, tok []byte) (int, error) {
	idx, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, fmt.Errorf("bad sCellToReleaseList %q: %w", d, err)
	}
	return idx, nil
}

// measObject resolves one measConfig body, interning through measMemo:
// a campaign's handful of distinct configurations parse once and every
// later sighting costs a map probe plus a defensive copy of the
// channel list. The memo keeps private slices, so a hit never aliases
// a previously returned message.
func (p *parser) measObject(body []byte) (rrc.MeasObject, error) {
	if mo, ok := p.measMemo[string(body)]; ok {
		if mo.Channels != nil {
			mo.Channels = append([]int(nil), mo.Channels...)
		}
		return mo, nil
	}
	mo, err := parseMeasObject(string(body))
	if err != nil {
		return rrc.MeasObject{}, err
	}
	if len(p.measMemo) < maxMemoEntries {
		stored := mo
		if stored.Channels != nil {
			stored.Channels = append([]int(nil), stored.Channels...)
		}
		p.measMemo[string(body)] = stored
	}
	return mo, nil
}

var sepCommaSpace = []byte(", ")

// buildMeasReport parses the measResult lines a report staged after its
// first fast-path miss (see addMeasResult), appending their entries
// after the ones already decoded into the parser's entries buffer. The
// report lends that buffer to the sink (see Sink) until the next report
// refills it. A report without measResult lines carries nil Entries.
//
//loopvet:hot
func (p *parser) buildMeasReport(details [][]byte) (rrc.Message, error) {
	es := p.entries
	for _, d := range details {
		if !bytes.HasPrefix(d, prefMeasResult) {
			continue
		}
		body := cutBraceBody(d, len(prefMeasResult))
		entry := rrc.MeasEntry{}
		rest := body
		for {
			var part []byte
			i := bytes.Index(rest, sepCommaSpace)
			last := i < 0
			if last {
				part = rest
			} else {
				part, rest = rest[:i], rest[i+2:]
			}
			j := bytes.IndexByte(part, ' ')
			if j < 0 {
				return nil, badMeasFieldError(part, d)
			}
			key, val := part[:j], part[j+1:]
			var err error
			switch string(key) {
			case "cell":
				ref, ok := scanRefB(val)
				if !ok {
					ref, err = parseRefSlow(val)
				}
				entry.Cell = ref
			case "role":
				entry.Role = internRole(val)
			case "rsrp":
				f, ok := scanFloatB(val)
				if !ok {
					f, err = parseFloatSlow(val)
				}
				entry.Meas.RSRPDBm = units.DBm(f)
			case "rsrq":
				f, ok := scanFloatB(val)
				if !ok {
					f, err = parseFloatSlow(val)
				}
				entry.Meas.RSRQDB = units.DB(f)
			default:
				err = unknownMeasFieldError(key)
			}
			if err != nil {
				return nil, badMeasResultError(d, err)
			}
			if last {
				break
			}
		}
		es = append(es, entry)
	}
	p.entries = es
	m := rrc.MeasReport{Rat: p.cur.rat}
	if len(es) > 0 {
		m.Entries = es
	}
	return m, nil
}

func badMeasFieldError(part, d []byte) error {
	return fmt.Errorf("bad measResult field %q in %q", part, d)
}

func unknownMeasFieldError(key []byte) error {
	return fmt.Errorf("unknown measResult field %q", key)
}

func badMeasResultError(d []byte, err error) error {
	return fmt.Errorf("bad measResult %q: %w", d, err)
}

// scanRefB is the canonical fast path for cell.ParseRef: full-token
// "<int>@<int>" with Atoi-subset components.
//
//loopvet:hot
func scanRefB(b []byte) (cell.Ref, bool) {
	at := bytes.IndexByte(b, '@')
	if at < 0 {
		return cell.Ref{}, false
	}
	pci, end, ok := scanIntB(b, 0)
	if !ok || end != at {
		return cell.Ref{}, false
	}
	ch, end, ok := scanIntB(b, at+1)
	if !ok || end != len(b) {
		return cell.Ref{}, false
	}
	return cell.Ref{PCI: pci, Channel: ch}, true
}

// parseRefSlow is cell.ParseRef on a materialized copy, error text
// included.
func parseRefSlow(b []byte) (cell.Ref, error) {
	return cell.ParseRef(string(b))
}

// buildException folds MM5G state lines, preserving the old parser's
// best-effort Sscanf semantics (errors ignored, partial fills kept,
// later lines overriding earlier ones).
func buildException(details [][]byte) rrc.Message {
	m := rrc.Exception{}
	for _, d := range details {
		if !bytes.HasPrefix(d, prefMM5G) {
			continue
		}
		if mm, sub, ok := scanMM5G(d); ok {
			if n := len(mm); n > 0 && mm[n-1] == ',' {
				mm = mm[:n-1]
			}
			m.MMState = internMMToken(mm)
			m.Substate = internMMToken(sub)
		} else {
			scanMM5GSlow(d, &m)
		}
	}
	return m
}

// scanMM5G is the canonical fast path for
// "MM5G State = %s Substate = %s": both tokens present, single spaces.
// Any partial or spaced-out variant misses to the Sscanf fallback.
//
//loopvet:hot
func scanMM5G(d []byte) (mm, sub []byte, ok bool) {
	pos, ok := matchLit(d, 0, "MM5G State = ")
	if !ok {
		return nil, nil, false
	}
	mmEnd := nonSpaceEnd(d, pos)
	if mmEnd == pos {
		return nil, nil, false
	}
	if mmEnd < 0 {
		return nil, nil, false
	}
	pos2, ok := matchLit(d, mmEnd, " Substate = ")
	if !ok {
		return nil, nil, false
	}
	subEnd := nonSpaceEnd(d, pos2)
	if subEnd <= pos2 {
		return nil, nil, false
	}
	return d[pos:mmEnd], d[pos2:subEnd], true
}

// nonSpaceEnd returns the end of the run of non-space bytes at pos per
// fmt's %s token rule, or -1 when the token holds a byte outside
// printable ASCII (fmt's isSpace set includes control bytes and two
// non-ASCII runes; anything that could hit them must take the Sscanf
// fallback instead of the fast path).
//
//loopvet:hot
func nonSpaceEnd(d []byte, pos int) int {
	for pos < len(d) {
		c := d[pos]
		if c == ' ' {
			return pos
		}
		if c < '!' || c >= 0x7f {
			return -1
		}
		pos++
	}
	return pos
}

// scanMM5GSlow is the old best-effort Sscanf on a materialized copy,
// with its trailing-comma trim applied the same way (to whatever the
// state field holds after the scan, even a value from an earlier
// line).
func scanMM5GSlow(db []byte, m *rrc.Exception) {
	d := string(db)
	fmt.Sscanf(d, "MM5G State = %s Substate = %s", &m.MMState, &m.Substate)
	m.MMState = strings.TrimSuffix(m.MMState, ",")
}

// internMMToken maps the MM states the simulator emits onto shared
// constants; anything else is copied (cold: unknown states appear once
// per damaged line, not per event).
//
//loopvet:hot
func internMMToken(b []byte) string {
	switch string(b) {
	case "DEREGISTERED":
		return "DEREGISTERED"
	case "NO_CELL_AVAILABLE":
		return "NO_CELL_AVAILABLE"
	case "":
		return ""
	}
	return stringCopy(b)
}

// internRole maps measurement roles onto the rrc constants.
//
//loopvet:hot
func internRole(b []byte) rrc.MeasRole {
	switch string(b) {
	case "PCell":
		return rrc.RolePCell
	case "PSCell":
		return rrc.RolePSCell
	case "SCell":
		return rrc.RoleSCell
	case "candidate":
		return rrc.RoleCandidate
	}
	return rrc.MeasRole(stringCopy(b))
}

// internCause maps SCG failure causes onto the rrc constants.
//
//loopvet:hot
func internCause(b []byte) rrc.SCGFailureCause {
	switch string(b) {
	case "randomAccessProblem":
		return rrc.SCGFailureRandomAccess
	case "scg-RadioLinkFailure":
		return rrc.SCGFailureRLF
	case "maxRetransmissions":
		return rrc.SCGFailureMaxRetx
	case "synchronousReconfigFailure":
		return rrc.SCGFailureSyncError
	}
	return rrc.SCGFailureCause(stringCopy(b))
}

// internReestCause maps reestablishment causes onto the rrc constants.
//
//loopvet:hot
func internReestCause(b []byte) rrc.ReestCause {
	switch string(b) {
	case "otherFailure":
		return rrc.ReestOtherFailure
	case "handoverFailure":
		return rrc.ReestHandoverFailure
	}
	return rrc.ReestCause(stringCopy(b))
}

// stringCopy is the explicit cold-path materialization for tokens
// outside every interning table.
func stringCopy(b []byte) string { return string(b) }

// parseMeasObject inverts rrc.MeasObject.String, e.g.
// "A2 RSRP < -156dBm on 387410,398410". It stays string-based: the hot
// path reaches it only on a measMemo miss, once per distinct
// configuration.
func parseMeasObject(s string) (rrc.MeasObject, error) {
	body, chans, ok := strings.Cut(s, " on ")
	if !ok {
		return rrc.MeasObject{}, fmt.Errorf("measConfig missing channels: %q", s)
	}
	ev, err := ParseEventConfig(body)
	if err != nil {
		return rrc.MeasObject{}, err
	}
	mo := rrc.MeasObject{Event: ev}
	for _, tok := range strings.Split(chans, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ch, err := strconv.Atoi(tok)
		if err != nil {
			return rrc.MeasObject{}, fmt.Errorf("bad measConfig channel %q: %w", tok, err)
		}
		mo.Channels = append(mo.Channels, ch)
	}
	return mo, nil
}

// ParseEventConfig inverts meas.EventConfig.String, accepting the four
// shapes the study emits ("A2 RSRP < -156dBm", "A3 RSRQ offset > 6dB",
// "A5 RSRP < -118dBm and > -120dBm", "B1 RSRP > -115dBm").
func ParseEventConfig(s string) (meas.EventConfig, error) {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return meas.EventConfig{}, fmt.Errorf("sig: bad event config %q", s)
	}
	var q meas.Quantity
	switch fields[1] {
	case "RSRP":
		q = meas.QuantityRSRP
	case "RSRQ":
		q = meas.QuantityRSRQ
	default:
		return meas.EventConfig{}, fmt.Errorf("sig: bad quantity in %q", s)
	}
	num := func(tok string) (float64, error) {
		tok = strings.TrimSuffix(strings.TrimSuffix(tok, "dBm"), "dB")
		return strconv.ParseFloat(tok, 64)
	}
	switch fields[0] {
	case "A2":
		if len(fields) != 4 || fields[2] != "<" {
			return meas.EventConfig{}, fmt.Errorf("sig: bad A2 config %q", s)
		}
		v, err := num(fields[3])
		if err != nil {
			return meas.EventConfig{}, err
		}
		return meas.A2(q, units.Level(v)), nil
	case "A3":
		if len(fields) != 5 || fields[2] != "offset" || fields[3] != ">" {
			return meas.EventConfig{}, fmt.Errorf("sig: bad A3 config %q", s)
		}
		v, err := num(fields[4])
		if err != nil {
			return meas.EventConfig{}, err
		}
		return meas.A3(q, units.DB(v)), nil
	case "A5":
		if len(fields) != 7 || fields[2] != "<" || fields[4] != "and" || fields[5] != ">" {
			return meas.EventConfig{}, fmt.Errorf("sig: bad A5 config %q", s)
		}
		t1, err := num(fields[3])
		if err != nil {
			return meas.EventConfig{}, err
		}
		t2, err := num(fields[6])
		if err != nil {
			return meas.EventConfig{}, err
		}
		return meas.A5(q, units.Level(t1), units.Level(t2)), nil
	case "B1":
		if len(fields) != 4 || fields[2] != ">" {
			return meas.EventConfig{}, fmt.Errorf("sig: bad B1 config %q", s)
		}
		v, err := num(fields[3])
		if err != nil {
			return meas.EventConfig{}, err
		}
		return meas.B1(q, units.Level(v)), nil
	default:
		return meas.EventConfig{}, fmt.Errorf("sig: unknown event kind in %q", s)
	}
}
