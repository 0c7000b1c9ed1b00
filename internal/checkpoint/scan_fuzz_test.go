package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// oracleScan is scan as it read every line before the canonical frame
// was read by hand and the file through a window: the whole file in one
// buffer, encoding/json decodes each line into the line schema, and the
// line is valid if its checksum matches.
func oracleScan(data []byte) ([]Entry, int64, *Salvage) {
	var entries []Entry
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		var l line
		if err := json.Unmarshal(data[off:off+nl], &l); err != nil || l.C != oracleChecksum(l.K, l.P) {
			break
		}
		entries = append(entries, Entry{Key: l.K, Payload: l.P})
		off += nl + 1
	}
	tail := data[off:]
	lines := bytes.Count(tail, []byte{'\n'})
	if len(tail) > 0 && tail[len(tail)-1] != '\n' {
		lines++ // the final line has no newline
	}
	return entries, int64(off), &Salvage{Entries: len(entries),
		LinesDropped: lines, BytesDropped: int64(len(tail))}
}

// scanBytes runs scan over data through a window of size bytes (bufio
// raises any size under 16 to 16), collecting every entry it lends with
// a copy of its payload, as Open does.
func scanBytes(t testing.TB, data []byte, size int) ([]Entry, int64, *Salvage) {
	t.Helper()
	var entries []Entry
	valid, sal, err := scan(bufio.NewReaderSize(bytes.NewReader(data), size), func(e Entry) error {
		e.Payload = bytes.Clone(e.Payload)
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries, valid, sal
}

// signedLine renders one journal line from a layout whose %s verbs take
// the checksum, the key as written and the payload as written, in that
// order, checksummed over the key and payload the line decodes to.
func signedLine(layout, key, keyJSON, payload, payloadJSON string) string {
	return fmt.Sprintf(layout, oracleChecksum(key, []byte(payload)), keyJSON, payloadJSON) + "\n"
}

// requireOracleScan fails unless scan reads data exactly as oracleScan
// does, through bufio's smallest window and through the production
// one: the same entries, valid prefix and salvage report.
func requireOracleScan(t *testing.T, data []byte) {
	t.Helper()
	wantEntries, wantValid, wantSal := oracleScan(data)
	for _, size := range []int{16, window} {
		entries, valid, sal := scanBytes(t, data, size)
		if !reflect.DeepEqual(entries, wantEntries) || valid != wantValid || *sal != *wantSal {
			t.Fatalf("%d-byte window: scan kept %d entries over %d bytes (%s), the oracle %d over %d (%s)\nscan   %q\noracle %q",
				size, len(entries), valid, sal.Summary(), len(wantEntries), wantValid, wantSal.Summary(), entries, wantEntries)
		}
	}
}

// FuzzScan holds the journal's line scan to its contract on any file
// content: it never panics, it keeps a prefix of whole lines, its
// salvage report accounts for every byte and line past that prefix,
// and the prefix is exactly what a rescan keeps, with nothing left to
// salvage. It also reads every input exactly as oracleScan does,
// through the smallest window bufio allows and through the production
// one, so neither the canonical frame read by hand nor the window
// changes an entry, the prefix or the salvage report. The seed corpus
// starts from a journal written by Append, which must scan back to
// exactly its entries, and adds checksummed
// lines that only encoding/json reads: frame members reordered,
// upper-cased, duplicated or unknown, whitespace, and escaped keys; and
// canonical lines that encoding/json reads the same, with U+2028 in the
// key and -0, 1e2 and an integer too big for int64 as payloads.
func FuzzScan(f *testing.F) {
	const n = 5
	data, err := os.ReadFile(writeEntries(f, n))
	if err != nil {
		f.Fatal(err)
	}
	var want []Entry
	for i := 0; i < n; i++ {
		p, err := json.Marshal(payload{N: i, S: strings.Repeat("x", i)})
		if err != nil {
			f.Fatal(err)
		}
		want = append(want, Entry{Key: fmt.Sprintf("op/A%d/0/%d/42", i%3, i), Payload: p})
	}
	if entries, valid, sal := scanBytes(f, data, window); !reflect.DeepEqual(entries, want) ||
		valid != int64(len(data)) || !sal.Clean() {
		f.Fatalf("Append-written journal scans to %d entries over %d of %d bytes (%s), want its %d entries",
			len(entries), valid, len(data), sal.Summary(), n)
	}

	f.Add(data)
	f.Add(data[:len(data)-7])                                       // torn tail
	f.Add(bytes.Replace(data, []byte(`"n":2`), []byte(`"n":9`), 1)) // checksum mismatch mid-file
	f.Add(append(append([]byte{}, data...), "\n\n{}\n"...))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte(`{"c":"00000000","k":"","p":null}` + "\n"))
	for _, l := range []string{
		signedLine(`{"k":%[2]s,"c":"%[1]s","p":%[3]s}`, "k", `"k"`, `{"n":1}`, `{"n":1}`),
		signedLine(`{"C":"%s","K":%s,"P":%s}`, "k", `"k"`, `[1,2]`, `[1,2]`),
		signedLine(`{"c":"%s","k":%s,"p":1,"p":%s}`, "k", `"k"`, `2`, `2`),
		signedLine(`{"c":"%s","k":%s,"p":%s,"x":{"y":[]}}`, "k", `"k"`, `"v"`, `"v"`),
		signedLine(` { "c" : "%s" , "k" : %s , "p" : %s } `, "k", `"k"`, `{"a": [1, 2]}`, `{"a": [1, 2]}`),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "a<b\n", `"a<b\n"`, `"<"`, `"<"`),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "a\u2028b", "\"a\u2028b\"", "\"\u2028\"", "\"\u2028\""),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "z", `"z"`, `-0`, `-0`),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "e", `"e"`, `1e2`, `1e2`),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "big", `"big"`, `99999999999999999999`, `99999999999999999999`),
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "bad\xff", "\"bad\xff\"", `0`, `0`),
	} {
		f.Add([]byte(l))
		f.Add(append([]byte(l), data...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireOracleScan(t, data)
		entries, valid, sal := scanBytes(t, data, window)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d bytes of a %d-byte input", valid, len(data))
		}
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("kept prefix ends mid-line at byte %d", valid)
		}
		tail := data[valid:]
		lines := 0
		for _, l := range bytes.SplitAfter(tail, []byte{'\n'}) {
			if len(l) > 0 {
				lines++
			}
		}
		if sal.Entries != len(entries) || sal.BytesDropped != int64(len(tail)) || sal.LinesDropped != lines {
			t.Fatalf("salvage %+v for %d entries and a %d-byte, %d-line tail",
				sal, len(entries), len(tail), lines)
		}
		again, againValid, againSal := scanBytes(t, data[:valid], window)
		if !reflect.DeepEqual(again, entries) || againValid != valid || !againSal.Clean() {
			t.Fatalf("rescanning the kept prefix gave %d entries over %d bytes (%s), want %d over %d, clean",
				len(again), againValid, againSal.Summary(), len(entries), valid)
		}
		// The prefix is the longest one: the first dropped line is itself
		// invalid.
		if rest, _, _ := scanBytes(t, tail, window); len(rest) != 0 {
			t.Fatalf("the dropped tail starts with %d valid entries", len(rest))
		}
	})
}

// TestScanMatchesOracleAtDepthLimit runs FuzzScan's oracle check on
// payloads too large to seed a fuzzer with: nested to encoding/json's
// depth limit, which a payload reaches alone but not inside its line,
// and one level less, which fits in the line.
func TestScanMatchesOracleAtDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		p := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		data := []byte(signedLine(`{"c":"%s","k":%s,"p":%s}`, "deep", `"deep"`, p, p))
		requireOracleScan(t, data)
		if entries, _, _ := scanBytes(t, data, window); (len(entries) == 1) != (depth < maxDepth) {
			t.Errorf("depth %d: scan kept %d entries", depth, len(entries))
		}
	}
}

// TestScanMatchesOracleOnLongLines runs FuzzScan's oracle check on
// lines too long to seed a fuzzer with: a canonical line and a spaced
// one, each several times the production window, between short lines,
// then the same journal ending in a torn tail longer than the window.
func TestScanMatchesOracleOnLongLines(t *testing.T) {
	long := `{"s":"` + strings.Repeat("x", 3*window) + `"}`
	spaced := `[` + strings.Repeat(" ", 2*window) + `1]`
	data := []byte(signedLine(`{"c":"%s","k":%s,"p":%s}`, "a", `"a"`, `1`, `1`) +
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "long", `"long"`, long, long) +
		signedLine(`{"p":%[3]s,"k":%[2]s,"c":"%[1]s"}`, "spaced", `"spaced"`, spaced, spaced) +
		signedLine(`{"c":"%s","k":%s,"p":%s}`, "b", `"b"`, `2`, `2`))
	requireOracleScan(t, data)
	if entries, valid, sal := scanBytes(t, data, window); len(entries) != 4 || valid != int64(len(data)) || !sal.Clean() {
		t.Fatalf("scan kept %d entries over %d of %d bytes (%s), want all 4", len(entries), valid, len(data), sal.Summary())
	}
	torn := append(data, long[:2*window]...)
	requireOracleScan(t, torn)
	if entries, _, sal := scanBytes(t, torn, window); len(entries) != 4 || sal.LinesDropped != 1 || sal.BytesDropped != 2*window {
		t.Fatalf("scan kept %d entries (%s), want 4 and the %d-byte torn tail dropped", len(entries), sal.Summary(), 2*window)
	}
}
