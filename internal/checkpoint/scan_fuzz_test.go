package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzScan holds the journal's line scan to its contract on any file
// content: it never panics, it keeps a prefix of whole lines, its
// salvage report accounts for every byte and line past that prefix,
// and the prefix is exactly what a rescan keeps, with nothing left to
// salvage. The seed corpus starts from a journal written by Append,
// which must scan back to exactly its entries.
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
	if entries, valid, sal := scan(data); !reflect.DeepEqual(entries, want) ||
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
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, valid, sal := scan(data)
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
		again, againValid, againSal := scan(data[:valid])
		if !reflect.DeepEqual(again, entries) || againValid != valid || !againSal.Clean() {
			t.Fatalf("rescanning the kept prefix gave %d entries over %d bytes (%s), want %d over %d, clean",
				len(again), againValid, againSal.Summary(), len(entries), valid)
		}
		// The prefix is the longest one: the first dropped line is itself
		// invalid.
		if rest, _, _ := scan(tail); len(rest) != 0 {
			t.Fatalf("the dropped tail starts with %d valid entries", len(rest))
		}
	})
}
