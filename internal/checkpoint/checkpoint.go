// Package checkpoint implements the durable run journal behind
// campaign crash recovery: an append-only JSONL file with one
// self-checksummed entry per completed unit of work, keyed by the
// caller's deterministic identity string.
//
// The journal is deliberately generic — it stores opaque JSON payloads
// under opaque keys and knows nothing about any domain package — so it
// sits at the leaf of the layering table. Durability comes from the
// format, not from fsync discipline: every line carries a CRC-32
// (IEEE) of its key and payload, so a crash mid-append leaves at worst
// one torn tail line that opening the journal detects — the tail is
// truncated away once the caller commits to the journal by appending.
// Salvage is strictly prefix-based: the longest run of consecutively
// valid lines survives and everything after the first damaged line is
// discarded, because entries after a corrupt region cannot be trusted
// to describe the same journal generation. An open journal holds an
// exclusive advisory file lock, so a second process cannot interleave
// appends; the kernel drops the lock when the process dies, so a
// killed campaign never leaves a stale lock behind.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Entry is one journal record: an opaque payload filed under the
// caller's deterministic key. Keys may repeat; replay order is file
// order, so the last entry for a key wins. OpenEach lends each entry
// for the duration of one callback: its Payload may alias the buffer
// the journal is read through and be overwritten once the callback
// returns, so a caller keeps a copy of anything it needs later. Its
// Key is a string of its own. The entries Open returns own their
// payloads.
type Entry struct {
	Key     string
	Payload json.RawMessage
}

// Salvage reports what Open recovered from an existing journal file.
type Salvage struct {
	// Entries is the number of valid entries kept (the prefix).
	Entries int
	// LinesDropped counts discarded lines — bad checksum, malformed
	// JSON, or a torn tail with no trailing newline — including every
	// line after the first damaged one.
	LinesDropped int
	// BytesDropped is the size of the truncated tail.
	BytesDropped int64
}

// Clean reports whether the whole file was valid.
func (s *Salvage) Clean() bool { return s.LinesDropped == 0 }

// Summary renders a one-line salvage report in the style of
// sig.Salvage.Summary.
func (s *Salvage) Summary() string {
	if s.Clean() {
		return fmt.Sprintf("journal intact: %d entries", s.Entries)
	}
	return fmt.Sprintf("journal salvaged: %d entries kept, %d lines (%d bytes) discarded",
		s.Entries, s.LinesDropped, s.BytesDropped)
}

// line is the on-disk schema of one entry, as decodeLine reads it. C is
// the CRC-32 (IEEE) hex digest of the key, a NUL separator, and the
// compact payload bytes. Append frames the bytes json.Marshal of a line
// writes by hand, in this field order; FuzzJournalLineParity holds the
// two to one layout.
type line struct {
	C string          `json:"c"`
	K string          `json:"k"`
	P json.RawMessage `json:"p"`
}

// nul separates the key from the payload in a checksum.
var nul = []byte{0}

// checksum digests one entry the way Append writes it and Open
// verifies it, into dst as 8 lowercase hex digits. It reads the key in
// place, so it allocates nothing.
//
//loopvet:hot
func checksum(dst *[8]byte, key string, payload []byte) {
	c := crc32.Update(0, crc32.IEEETable, unsafe.Slice(unsafe.StringData(key), len(key)))
	c = crc32.Update(c, crc32.IEEETable, nul)
	c = crc32.Update(c, crc32.IEEETable, payload)
	const digits = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = digits[c&0xf]
		c >>= 4
	}
}

// Journal is an open checkpoint file positioned for appending. Append
// is safe for concurrent use within the process, and the file carries
// an exclusive advisory lock against other processes for the journal's
// lifetime.
type Journal struct {
	mu   sync.Mutex
	f    *os.File      // guarded by: mu — nil once Close has released the file
	path string        // immutable after Open
	end  int64         // guarded by: mu — length of the valid prefix; next append lands here
	tail int64         // guarded by: mu — damaged bytes past end, truncated on the first commit
	line *bytes.Buffer // guarded by: mu — the line Append frames, reused across appends
	enc  *json.Encoder // guarded by: mu — encodes into line
}

// maxKeptLine caps the line buffer a journal keeps between appends, so
// one huge entry does not pin its buffer for the journal's lifetime.
// It is the bound the campaign's capture text pool keeps its buffers
// under.
const maxKeptLine = 4 << 20

// window is the size of the buffer OpenEach reads a journal through. A
// line that does not fit is assembled in a buffer of its own, so the
// window bounds no line, only what the scan holds for one that fits.
const window = 64 << 10

// OpenEach opens (creating if absent) the journal at path, takes an
// exclusive advisory lock on it, validates the existing content line
// by line, and lends each entry of the longest valid prefix to each,
// in file order (see Entry: the payload is valid only during the
// call). It returns the journal and a salvage report. The file is read
// through a fixed window, so opening a journal of any size holds one
// line at a time, and each entry reaches each as soon as its line is
// read. An error from each stops the scan: the file is closed and the
// error returned. OpenEach itself never mutates the file: a damaged
// tail is only truncated away when the caller commits to the journal
// by appending (or syncing), so a journal that is merely inspected —
// or refused by the caller after the header check — is left
// byte-for-byte as found. A journal already locked by another process
// is an error, so two campaigns can never interleave appends into one
// file.
func OpenEach(path string, each func(Entry) error) (*Journal, *Salvage, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: journal %s: %w", path, err)
	}
	valid, sal, err := scan(bufio.NewReaderSize(f, window), each)
	if err != nil {
		return nil, nil, errors.Join(err, f.Close())
	}
	line := new(bytes.Buffer)
	j := &Journal{f: f, path: path, end: valid, tail: sal.BytesDropped,
		line: line, enc: json.NewEncoder(line)}
	return j, sal, nil
}

// Open is OpenEach collecting the entries of the valid prefix in file
// order, each with a copy of its payload.
func Open(path string) (*Journal, []Entry, *Salvage, error) {
	var entries []Entry
	j, sal, err := OpenEach(path, func(e Entry) error {
		e.Payload = bytes.Clone(e.Payload)
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return j, entries, sal, nil
}

// scan reads journal content from r and lends each entry of the
// longest valid prefix to each, in file order. It returns the byte
// length of that prefix and the salvage report for the rest. A line
// that fits r's buffer is read in place; a longer one is assembled
// first, into a buffer reused for the next. A line in the canonical
// frame is read by frame; any other line by decodeLine, encoding/json's
// reading of the line schema, so a journal someone re-indented or
// edited by hand still opens. Either way the line is valid only if its
// checksum matches. A read error is wrapped; an error from each is
// returned as it is.
func scan(r *bufio.Reader, each func(Entry) error) (int64, *Salvage, error) {
	sal := &Salvage{}
	var valid int64
	var long []byte
	for {
		raw, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = r.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if err != nil && err != io.EOF {
			return 0, nil, fmt.Errorf("checkpoint: %w", err)
		}
		if len(raw) == 0 {
			return valid, sal, nil
		}
		if err == io.EOF {
			// A torn tail without newline: invalid by construction.
			return valid, sal, salvage(r, raw, sal)
		}
		e, ok := frame(raw[:len(raw)-1])
		if !ok {
			if e, ok = decodeLine(raw[:len(raw)-1]); !ok {
				return valid, sal, salvage(r, raw, sal)
			}
		}
		if err := each(e); err != nil {
			return 0, nil, err
		}
		sal.Entries++
		valid += int64(len(raw))
	}
}

// salvage counts into sal the first line past the valid prefix, raw,
// and everything r holds after it: every byte, and every line, a final
// one without a newline included.
func salvage(r *bufio.Reader, raw []byte, sal *Salvage) error {
	var last byte
	for len(raw) > 0 {
		sal.BytesDropped += int64(len(raw))
		if last = raw[len(raw)-1]; last == '\n' {
			sal.LinesDropped++
		}
		var err error
		if raw, err = r.ReadSlice('\n'); err != nil && err != bufio.ErrBufferFull && err != io.EOF {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if last != '\n' {
		sal.LinesDropped++
	}
	return nil
}

// frame reads a line in the canonical frame Append writes,
// {"c":"<8 hex>","k":"<key>","p":<payload>}, with a key that has no
// escapes and no bytes encoding/json would replace, and a payload that
// is one valid JSON value with no whitespace around it. It reports
// whether raw is such a line with a matching checksum; the entry's
// payload is a sub-slice of raw. On such a line decodeLine yields the
// same entry, so frame only spares it the reflection and the copy; on
// any other line, decodeLine is the judge.
func frame(raw []byte) (Entry, bool) {
	const head, mid, tail = `{"c":"`, `","k":"`, `","p":`
	const keyAt = len(head) + 8 + len(mid)
	if len(raw) <= keyAt || string(raw[:len(head)]) != head ||
		string(raw[keyAt-len(mid):keyAt]) != mid || raw[len(raw)-1] != '}' {
		return Entry{}, false
	}
	rest := raw[keyAt : len(raw)-1]
	q := bytes.IndexByte(rest, '"')
	if q < 0 || !bytes.HasPrefix(rest[q:], []byte(tail)) {
		return Entry{}, false
	}
	key, p := rest[:q], rest[q+len(tail):]
	if !plainString(key) || len(p) == 0 || isSpace(p[0]) || isSpace(p[len(p)-1]) {
		return Entry{}, false
	}
	// The payload nests one level deeper in its line than alone.
	if depth, ok := validJSON(p); !ok || depth >= maxDepth {
		return Entry{}, false
	}
	k := string(key)
	var sum [8]byte
	checksum(&sum, k, p)
	if string(raw[len(head):len(head)+8]) != string(sum[:]) {
		return Entry{}, false
	}
	return Entry{Key: k, Payload: p[:len(p):len(p)]}, true
}

// plainString reports whether s, the body of a JSON string, is one
// encoding/json unquotes to itself: no escape, no control byte and
// valid UTF-8.
func plainString(s []byte) bool {
	for _, c := range s {
		if c == '\\' || c < 0x20 {
			return false
		}
	}
	return utf8.Valid(s)
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// decodeLine reads a line in any layout encoding/json accepts for the
// line schema and reports whether its checksum matches.
func decodeLine(raw []byte) (Entry, bool) {
	var l line
	if err := json.Unmarshal(raw, &l); err != nil {
		return Entry{}, false
	}
	var sum [8]byte
	checksum(&sum, l.K, l.P)
	if l.C != string(sum[:]) {
		return Entry{}, false
	}
	return Entry{Key: l.K, Payload: l.P}, true
}

// Append encodes payload and appends one checksummed entry under key.
// The payload is encoded once, into a buffer the journal keeps between
// appends, and the line is framed around it by hand. A payload that
// appends its own encoding (see appender) is appended into that buffer
// as it is, with no encoding/json pass. Any other payload, a
// json.RawMessage included, goes through encoding/json, and the line
// holds the bytes json.Marshal of the line schema writes, plus a
// newline: its "p" is the compact, HTML-escaped form
// json.Marshal(payload) gives. So a json.RawMessage payload is
// validated and compacted once, and any other value is encoded and
// never scanned again. A payload that does not encode fails and writes
// nothing, and so does a key that is not valid UTF-8: encoding/json
// would write it with U+FFFD in place of the bad bytes, under a
// checksum of the original, and Open would drop that line and every
// line after it. The line is written with a single Write call and no
// userspace buffering, so a crash between appends never tears an
// already-written entry. The first append commits the journal: a
// damaged tail found by Open is truncated away here, immediately
// before the new line lands.
//
// locks: mu
func (j *Journal) Append(key string, payload any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	err := j.appendLocked(key, payload)
	if j.line.Cap() > maxKeptLine {
		*j.line = bytes.Buffer{}
	}
	return err
}

// appender is a payload that appends its own encoding to b: one compact
// JSON value, the bytes json.Marshal would write for it. Append takes
// those bytes as they are, straight into the line, with no encoding/json
// pass to validate, compact or escape them.
type appender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// appendLocked frames key's entry line in j.line and writes it at the
// end of the valid prefix.
//
// requires: mu
func (j *Journal) appendLocked(key string, payload any) error {
	if !utf8.ValidString(key) {
		return fmt.Errorf("checkpoint: key %q is not valid UTF-8", key)
	}
	j.line.Reset()
	j.line.WriteString(`{"c":"00000000","k":`)
	if err := j.enc.Encode(key); err != nil {
		return fmt.Errorf("checkpoint: encoding key %q: %w", key, err)
	}
	j.line.Truncate(j.line.Len() - 1) // Encode ends every value with a newline
	j.line.WriteString(`,"p":`)
	start := j.line.Len()
	var err error
	if a, ok := payload.(appender); ok {
		var p []byte
		if p, err = a.AppendJSON(j.line.AvailableBuffer()); err == nil {
			j.line.Write(p)
		}
	} else if err = j.enc.Encode(payload); err == nil {
		j.line.Truncate(j.line.Len() - 1) // Encode ends every value with a newline
	}
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %q: %w", key, err)
	}
	end := j.line.Len()
	j.line.WriteString("}\n")
	buf := j.line.Bytes()
	checksum((*[8]byte)(buf[len(`{"c":"`):]), key, buf[start:end])
	if err := j.truncateTailLocked(); err != nil {
		return err
	}
	if _, err := j.f.WriteAt(buf, j.end); err != nil {
		return fmt.Errorf("checkpoint: appending to %s: %w", j.path, err)
	}
	j.end += int64(len(buf))
	return nil
}

// truncateTailLocked discards the damaged tail left pending by Open.
//
// requires: mu
func (j *Journal) truncateTailLocked() error {
	if j.tail <= 0 {
		return nil
	}
	if err := j.f.Truncate(j.end); err != nil {
		return fmt.Errorf("checkpoint: truncating damaged tail of %s: %w", j.path, err)
	}
	j.tail = 0
	return nil
}

// Sync forces the journal contents to stable storage. Like Append it
// is a commit point: a pending damaged tail is truncated first.
//
// locks: mu
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.truncateTailLocked(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close releases the journal file and, with it, the advisory lock.
// Further Appends fail. A damaged tail never committed away stays on
// disk and is re-salvaged identically by the next Open.
//
// locks: mu
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
