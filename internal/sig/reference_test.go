package sig

// This file preserves the pre-rewrite string-based parser verbatim
// (renamed with a ref prefix) as a test-only reference implementation.
// The production parser in parse.go operates on []byte with a pooled
// arena and interning tables; every behavioral claim it makes — events,
// Salvage reports, obs counters — is checked against this oracle by the
// parity tests and FuzzParseBytes. Keep this file byte-faithful to the
// old code paths: its fmt.Sscanf/strings semantics are the contract the
// byte path must reproduce, error text included.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// refParse is the old shared strict/lenient parsing loop.
func refParse(r io.Reader, lenient bool, c obs.Collector) (*Log, *Salvage, error) {
	lr := &refLineReader{br: bufio.NewReaderSize(r, 64*1024), max: maxLineBytes}
	log := &Log{Events: make([]Event, 0, 256)}
	sal := &Salvage{}
	var (
		cur       *refRawEvent
		lineNum   int
		oversized int
	)
	flush := func() error {
		if cur == nil {
			return nil
		}
		msg, err := refBuildMessage(cur)
		if err != nil {
			pe := &ParseError{Line: cur.line, Text: cur.header, Err: err}
			cur = nil
			if !lenient {
				return pe
			}
			sal.RecordsDropped++
			sal.note(pe)
			return nil
		}
		log.Append(cur.at, msg)
		cur = nil
		return nil
	}
	for {
		line, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err // reader failure, not capture damage
		}
		lineNum++
		if tooLong {
			oversized++
			pe := &ParseError{Line: lineNum, Text: line[:80] + "…", Err: ErrLineTooLong}
			if !lenient {
				return nil, nil, pe
			}
			sal.LinesSkipped++
			sal.note(pe)
			if cur != nil && strings.HasPrefix(line, "  ") {
				sal.RecordsDropped++
				cur = nil
			}
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "  ") {
			if cur != nil {
				cur.details = append(cur.details, strings.TrimSpace(line))
			} else if lenient {
				sal.LinesSkipped++ // orphaned detail, nothing to attach to
			}
			continue
		}
		hdr, ok := refParseHeader(line)
		if !ok {
			if lenient {
				sal.LinesSkipped++
			}
			continue // foreign record; tolerate
		}
		if err := flush(); err != nil {
			return nil, nil, err
		}
		hdr.line = lineNum
		cur = hdr
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	sal.EventsKept = log.Len()
	if c != nil {
		c.Add("sig.lines.read", int64(lineNum))
		c.Add("sig.lines.oversized", int64(oversized))
		c.Add("sig.lines.skipped", int64(sal.LinesSkipped))
		c.Add("sig.records.dropped", int64(sal.RecordsDropped))
		c.Add("sig.events.kept", int64(sal.EventsKept))
		c.Observe("sig.events.count", float64(sal.EventsKept))
	}
	return log, sal, nil
}

// refLineReader is the old string-returning line reader.
type refLineReader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

func (lr *refLineReader) next() (line string, tooLong bool, err error) {
	buf := lr.buf[:0]
	defer func() { lr.buf = buf }()
	for {
		chunk, err := lr.br.ReadSlice('\n')
		if !tooLong {
			if len(buf)+len(chunk) > lr.max {
				keep := lr.max - len(buf)
				buf = append(buf, chunk[:keep]...)
				tooLong = true
			} else {
				buf = append(buf, chunk...)
			}
		}
		switch err {
		case bufio.ErrBufferFull:
			continue // line spans the read buffer; keep draining
		case nil:
			return refTrimEOL(buf), tooLong, nil
		case io.EOF:
			if len(buf) == 0 {
				return "", false, io.EOF
			}
			return refTrimEOL(buf), tooLong, nil
		default:
			return refTrimEOL(buf), tooLong, err
		}
	}
}

// refTrimEOL strips a trailing "\n" or "\r\n" (with the old per-line
// string copy).
func refTrimEOL(b []byte) string {
	s := string(b)
	s = strings.TrimSuffix(s, "\n")
	return strings.TrimSuffix(s, "\r")
}

// refRawEvent is the old per-event accumulation record.
type refRawEvent struct {
	at      time.Duration
	rat     band.RAT
	kind    string
	header  string
	details []string
	line    int
}

func refParseHeader(line string) (*refRawEvent, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return nil, false
	}
	at, ok := parseTimestamp(fields[0])
	if !ok {
		return nil, false
	}
	rest := strings.TrimSpace(line[len(fields[0]):])
	if rest == "SYS -- EXCEPTION" {
		return &refRawEvent{at: at, rat: band.RATNR, kind: "EXCEPTION", header: line}, true
	}
	techName, after, ok := strings.Cut(rest, " RRC OTA Packet -- ")
	if !ok {
		return nil, false
	}
	var rat band.RAT
	switch techName {
	case "NR5G":
		rat = band.RATNR
	case "LTE":
		rat = band.RATLTE
	default:
		return nil, false
	}
	_, kind, ok := strings.Cut(after, " / ")
	if !ok {
		return nil, false
	}
	return &refRawEvent{at: at, rat: rat, kind: strings.TrimSpace(kind), header: line}, true
}

func refBuildMessage(e *refRawEvent) (rrc.Message, error) {
	switch e.kind {
	case "MIB":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		return rrc.MIB{Rat: e.rat, Cell: ref}, nil
	case "SIB1":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		m := rrc.SIB1{Rat: e.rat, Cell: ref}
		for _, d := range e.details {
			if v, ok := strings.CutPrefix(d, "selectionThreshRSRP = "); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("bad selectionThreshRSRP: %w", err)
				}
				m.ThreshRSRPDBm = units.DBm(f)
			}
		}
		return m, nil
	case "RRCSetupRequest", "RRCConnectionSetupRequest":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		return rrc.SetupRequest{Rat: e.rat, Cell: ref}, nil
	case "RRCSetup", "RRCConnectionSetup":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		return rrc.Setup{Rat: e.rat, Cell: ref}, nil
	case "RRCSetupComplete", "RRCConnectionSetupComplete":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		return rrc.SetupComplete{Rat: e.rat, Cell: ref}, nil
	case "RRCReconfiguration", "RRCConnectionReconfiguration":
		return refBuildReconfig(e)
	case "RRCReconfigurationComplete", "RRCConnectionReconfigurationComplete":
		return rrc.ReconfigComplete{Rat: e.rat}, nil
	case "MeasurementReport":
		return refBuildMeasReport(e)
	case "SCGFailureInformationNR":
		for _, d := range e.details {
			if v, ok := strings.CutPrefix(d, "failureType "); ok {
				return rrc.SCGFailureInfo{FailureType: rrc.SCGFailureCause(strings.TrimSpace(v))}, nil
			}
		}
		return nil, fmt.Errorf("SCGFailureInformationNR without failureType")
	case "RRCConnectionReestablishmentRequest":
		for _, d := range e.details {
			if v, ok := strings.CutPrefix(d, "reestablishmentCause "); ok {
				return rrc.ReestablishmentRequest{Cause: rrc.ReestCause(strings.TrimSpace(v))}, nil
			}
		}
		return nil, fmt.Errorf("reestablishment request without cause")
	case "RRCConnectionReestablishmentComplete":
		ref, err := refFindCellLine(e.details)
		if err != nil {
			return nil, err
		}
		return rrc.ReestablishmentComplete{Cell: ref}, nil
	case "RRCRelease", "RRCConnectionRelease":
		return rrc.Release{Rat: e.rat}, nil
	case "EXCEPTION":
		m := rrc.Exception{}
		for _, d := range e.details {
			if strings.HasPrefix(d, "MM5G State = ") {
				fmt.Sscanf(d, "MM5G State = %s Substate = %s", &m.MMState, &m.Substate)
				m.MMState = strings.TrimSuffix(m.MMState, ",")
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("unknown message kind %q", e.kind)
	}
}

func refFindCellLine(details []string) (cell.Ref, error) {
	for _, d := range details {
		if !strings.HasPrefix(d, "Physical Cell ID = ") {
			continue
		}
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
	return cell.Ref{}, fmt.Errorf("missing Physical Cell ID line")
}

func refBuildReconfig(e *refRawEvent) (rrc.Message, error) {
	serving, err := refFindCellLine(e.details)
	if err != nil {
		return nil, err
	}
	m := rrc.Reconfig{Rat: e.rat, Serving: serving}
	for _, d := range e.details {
		switch {
		case strings.HasPrefix(d, "sCellToAddModList "):
			var idx, pci, ch int
			if _, err := fmt.Sscanf(d, "sCellToAddModList {sCellIndex %d, physCellId %d, absoluteFrequencySSB %d}",
				&idx, &pci, &ch); err != nil {
				return nil, fmt.Errorf("bad sCellToAddModList %q: %w", d, err)
			}
			m.AddSCells = append(m.AddSCells, rrc.SCellEntry{Index: idx, Cell: cell.Ref{PCI: pci, Channel: ch}})
		case strings.HasPrefix(d, "sCellToReleaseList {"):
			body := strings.TrimSuffix(strings.TrimPrefix(d, "sCellToReleaseList {"), "}")
			for _, tok := range strings.Split(body, ",") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					continue
				}
				idx, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("bad sCellToReleaseList %q: %w", d, err)
				}
				m.ReleaseSCells = append(m.ReleaseSCells, idx)
			}
		case strings.HasPrefix(d, "spCellConfig {"):
			var pci, ch int
			if _, err := fmt.Sscanf(d, "spCellConfig {physCellId %d, ssbFrequency %d}", &pci, &ch); err != nil {
				return nil, fmt.Errorf("bad spCellConfig %q: %w", d, err)
			}
			ref := cell.Ref{PCI: pci, Channel: ch}
			m.SpCell = &ref
		case strings.HasPrefix(d, "scgSCell {"):
			var pci, ch int
			if _, err := fmt.Sscanf(d, "scgSCell {physCellId %d, ssbFrequency %d}", &pci, &ch); err != nil {
				return nil, fmt.Errorf("bad scgSCell %q: %w", d, err)
			}
			m.SCGSCells = append(m.SCGSCells, cell.Ref{PCI: pci, Channel: ch})
		case d == "scg-Release {}":
			m.SCGRelease = true
		case strings.HasPrefix(d, "mobilityControlInfo {"):
			var pci, ch int
			if _, err := fmt.Sscanf(d, "mobilityControlInfo {targetPhysCellId %d, dl-CarrierFreq %d}", &pci, &ch); err != nil {
				return nil, fmt.Errorf("bad mobilityControlInfo %q: %w", d, err)
			}
			ref := cell.Ref{PCI: pci, Channel: ch}
			m.Mobility = &ref
		case strings.HasPrefix(d, "measConfig {"):
			mo, err := parseMeasObject(strings.TrimSuffix(strings.TrimPrefix(d, "measConfig {"), "}"))
			if err != nil {
				return nil, err
			}
			m.MeasConfig = append(m.MeasConfig, mo)
		}
	}
	return m, nil
}

func refBuildMeasReport(e *refRawEvent) (rrc.Message, error) {
	m := rrc.MeasReport{Rat: e.rat}
	for _, d := range e.details {
		if !strings.HasPrefix(d, "measResult {") {
			continue
		}
		body := strings.TrimSuffix(strings.TrimPrefix(d, "measResult {"), "}")
		entry := rrc.MeasEntry{}
		var err error
		for _, part := range strings.Split(body, ", ") {
			key, val, ok := strings.Cut(part, " ")
			if !ok {
				return nil, fmt.Errorf("bad measResult field %q in %q", part, d)
			}
			switch key {
			case "cell":
				entry.Cell, err = cell.ParseRef(val)
			case "role":
				entry.Role = rrc.MeasRole(val)
			case "rsrp":
				var f float64
				f, err = strconv.ParseFloat(val, 64)
				entry.Meas.RSRPDBm = units.DBm(f)
			case "rsrq":
				var f float64
				f, err = strconv.ParseFloat(val, 64)
				entry.Meas.RSRQDB = units.DB(f)
			default:
				err = fmt.Errorf("unknown measResult field %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("bad measResult %q: %w", d, err)
			}
		}
		m.Entries = append(m.Entries, entry)
	}
	return m, nil
}
