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
// one torn tail line that Open detects — the tail is truncated away
// once the caller commits to the journal by appending. Salvage is
// strictly prefix-based: the longest run of consecutively valid lines
// survives and everything after the first damaged line is discarded,
// because entries after a corrupt region cannot be trusted to describe
// the same journal generation. An open journal holds an exclusive
// advisory file lock, so a second process cannot interleave appends;
// the kernel drops the lock when the process dies, so a killed
// campaign never leaves a stale lock behind.
package checkpoint

import (
	"bytes"
	"encoding/json"
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
// order, so the last entry for a key wins.
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

// line is the on-disk schema of one entry, as Open reads it. C is the
// CRC-32 (IEEE) hex digest of the key, a NUL separator, and the compact
// payload bytes. Append frames the bytes json.Marshal of a line writes
// by hand, in this field order; FuzzJournalLineParity holds the two to
// one layout.
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

// Open opens (creating if absent) the journal at path, takes an
// exclusive advisory lock on it, validates the existing content line
// by line, and returns the entries of the longest valid prefix in file
// order plus a salvage report. Open itself never mutates the file: a
// damaged tail is only truncated away when the caller commits to the
// journal by appending (or syncing), so a journal that is merely
// inspected — or refused by the caller after the header check — is
// left byte-for-byte as found. A journal already locked by another
// process is an error, so two campaigns can never interleave appends
// into one file.
func Open(path string) (*Journal, []Entry, *Salvage, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("checkpoint: journal %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, validBytes, sal := scan(data)
	line := new(bytes.Buffer)
	j := &Journal{f: f, path: path, end: validBytes, tail: int64(len(data)) - validBytes,
		line: line, enc: json.NewEncoder(line)}
	return j, entries, sal, nil
}

// scan walks the file content, returning the entries of the longest
// valid prefix, the byte length of that prefix, and the salvage
// report for the rest.
func scan(data []byte) ([]Entry, int64, *Salvage) {
	var entries []Entry
	sal := &Salvage{}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail without newline: invalid by construction
		}
		raw := data[off : off+nl]
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			break
		}
		var sum [8]byte
		checksum(&sum, l.K, l.P)
		if l.C != string(sum[:]) {
			break
		}
		entries = append(entries, Entry{Key: l.K, Payload: l.P})
		off += nl + 1
	}
	sal.Entries = len(entries)
	sal.BytesDropped = int64(len(data) - off)
	sal.LinesDropped = countLines(data[off:])
	return entries, int64(off), sal
}

// countLines counts the (possibly newline-less final) lines in the
// discarded tail.
func countLines(tail []byte) int {
	if len(tail) == 0 {
		return 0
	}
	n := bytes.Count(tail, []byte{'\n'})
	if tail[len(tail)-1] != '\n' {
		n++
	}
	return n
}

// Append encodes payload and appends one checksummed entry under key.
// The payload is encoded once, into a buffer the journal keeps between
// appends, and the line is framed around it by hand. The line holds
// the bytes json.Marshal of the line schema writes, plus a newline;
// its "p" is the compact, HTML-escaped form json.Marshal(payload)
// gives. So a json.RawMessage payload is validated and compacted once,
// and any other value is encoded and never scanned again. A payload
// that does not encode fails and writes nothing, and so does a key
// that is not valid UTF-8: encoding/json would write it with U+FFFD in
// place of the bad bytes, under a checksum of the original, and Open
// would drop that line and every line after it. The line is written
// with a single Write call and no userspace buffering, so a crash
// between appends never tears an already-written entry. The first
// append commits the journal: a damaged tail found by Open is
// truncated away here, immediately before the new line lands.
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
	if err := j.enc.Encode(payload); err != nil {
		return fmt.Errorf("checkpoint: encoding %q: %w", key, err)
	}
	end := j.line.Len() - 1
	j.line.Truncate(end)
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
