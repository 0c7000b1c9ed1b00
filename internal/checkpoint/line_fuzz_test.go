package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// oracleLine is the journal line as Append wrote it before it framed
// lines and digests by hand: the payload marshaled on its own, then the
// line schema marshaled around it, which validates and compacts the
// payload a second time, plus the newline.
func oracleLine(key string, payload any) ([]byte, error) {
	p, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(line{C: oracleChecksum(key, p), K: key, P: p})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// oracleChecksum is checksum as the journal computed it before it
// wrote the digits by hand: a hash.Hash32 over copies of the key and
// the NUL, formatted by fmt.
func oracleChecksum(key string, payload []byte) string {
	h := crc32.NewIEEE()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(payload)
	return fmt.Sprintf("%08x", h.Sum32())
}

// appendOne appends one entry to a fresh journal and returns the file's
// bytes, the entries reopening it reads back, and Append's error.
func appendOne(t *testing.T, key string, payload any) ([]byte, []Entry, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendErr := j.Append(key, payload)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, entries, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return data, entries, appendErr
}

// FuzzJournalLineParity holds the line Append frames by hand to the
// oracle's bytes for any valid UTF-8 key and any payload: a
// json.RawMessage payload as given and, when it is valid JSON, indented
// so there is whitespace to compact; and a struct payload whose string
// holds the same bytes. A payload the oracle cannot encode must fail
// Append too and leave the file empty, and an entry Append wrote must
// reopen under its key. A key that is not valid UTF-8 must fail Append
// and leave the file empty, whatever the payload. The seeds put the
// bytes encoding/json escapes (<, >, &, U+2028, U+2029, invalid UTF-8
// and control bytes) in keys and in payload strings; a panicked
// record's stack holds "<autogenerated>".
func FuzzJournalLineParity(f *testing.F) {
	for _, s := range []struct{ key, payload string }{
		{"OPT/A1/0/0/42", `{"n":1,"s":"x"}`},
		{"meta/options", " {\n\t\"seed\" : 42 ,\n\t\"faults\" : null\n} "},
		{"<k>&", `{"stack":"main.run(...)\n\t<autogenerated>:1 +0x1d & more"}`},
		{"k  ", "[\" \", \" \", \"<>&\"]"},
		{"bad\xff\xfeutf8", "\"\xff\xfe\xc0\x80\""},
		{"ctl\x00\x01\x1f\t\n\x7f", `"\u0000\b\f\n\r\t\u001f\u007f"`},
		{"raw ctl", "\"a\x01b\""},
		{"", `null`},
		{"torn", `{"a":`},
		{"empty", ``},
		{"spaces", "  \r\n  "},
		{"number", ` -1.5e+300 `},
	} {
		f.Add(s.key, []byte(s.payload))
	}
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		payloads := []any{json.RawMessage(raw), payload{N: len(raw), S: string(raw)}}
		if json.Valid(raw) {
			var spaced bytes.Buffer
			if err := json.Indent(&spaced, raw, " ", "\t"); err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, json.RawMessage(spaced.Bytes()))
		}
		for i, p := range payloads {
			got, entries, err := appendOne(t, key, p)
			if !utf8.ValidString(key) {
				if err == nil || len(got) != 0 {
					t.Fatalf("payload %d (%q): key %q is not valid UTF-8, but Append error is %v and it wrote %q",
						i, raw, key, err, got)
				}
				continue
			}
			want, wantErr := oracleLine(key, p)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("payload %d (%q): Append error %v, oracle error %v", i, raw, err, wantErr)
			case err != nil && len(got) != 0:
				t.Fatalf("payload %d (%q): failed Append wrote %q", i, raw, got)
			case !bytes.Equal(got, want):
				t.Fatalf("payload %d (%q): Append wrote\n%q\noracle\n%q", i, raw, got, want)
			case err == nil && (len(entries) != 1 || entries[0].Key != key):
				t.Fatalf("payload %d (%q): reopened journal holds %+v, want one entry under %q", i, raw, entries, key)
			}
		}
	})
}
