package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/racecheck"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// writeEntries appends n entries and closes the journal, returning the
// path.
func writeEntries(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.ckpt")
	j, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || !sal.Clean() {
		t.Fatalf("fresh journal not empty/clean: %d entries, %+v", len(entries), sal)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(fmt.Sprintf("op/A%d/0/%d/42", i%3, i), payload{N: i, S: strings.Repeat("x", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeEntries(t, 7)
	j, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !sal.Clean() {
		t.Fatalf("clean journal reported salvage: %s", sal.Summary())
	}
	if len(entries) != 7 {
		t.Fatalf("entries = %d, want 7", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("op/A%d/0/%d/42", i%3, i)
		if e.Key != want {
			t.Fatalf("entry %d key = %q, want %q", i, e.Key, want)
		}
		var p payload
		if err := json.Unmarshal(e.Payload, &p); err != nil {
			t.Fatal(err)
		}
		if p.N != i || p.S != strings.Repeat("x", i) {
			t.Fatalf("entry %d payload = %+v", i, p)
		}
	}
}

func TestDuplicateKeysKeptInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("same", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, entries, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3 (duplicates must be preserved)", len(entries))
	}
	var last payload
	if err := json.Unmarshal(entries[2].Payload, &last); err != nil {
		t.Fatal(err)
	}
	if last.N != 2 {
		t.Fatalf("last duplicate N = %d, want 2", last.N)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := writeEntries(t, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: cut the final line short.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	if sal.Clean() || sal.LinesDropped != 1 || sal.BytesDropped == 0 {
		t.Fatalf("salvage = %+v, want 1 dropped line", sal)
	}
	if !strings.Contains(sal.Summary(), "salvaged") {
		t.Fatalf("summary = %q", sal.Summary())
	}
	// Open alone must not mutate the file; the first append commits the
	// journal, truncating the torn tail, and appending resumes cleanly.
	if fi, _ := os.Stat(path); fi.Size() != int64(len(data)-3) {
		t.Fatalf("Open mutated a journal it only inspected: %d bytes", fi.Size())
	}
	if err := j.Append("replacement", payload{N: 99}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !sal.Clean() || len(entries) != 5 {
		t.Fatalf("after repair: %d entries, %s", len(entries), sal.Summary())
	}
	if entries[4].Key != "replacement" {
		t.Fatalf("entries[4].Key = %q", entries[4].Key)
	}
}

func TestGarbledMiddleLineStopsPrefix(t *testing.T) {
	path := writeEntries(t, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	// Flip one payload byte of the third line; its checksum no longer
	// matches, so salvage must keep exactly two entries.
	i := bytes.LastIndexByte(lines[2], '}') - 1
	lines[2][i] ^= 0x01
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if sal.LinesDropped != 3 {
		t.Fatalf("LinesDropped = %d, want 3", sal.LinesDropped)
	}
	// The garbled tail survives the open untouched — a journal the
	// caller ends up refusing must come back byte-identical — and is
	// only discarded when an append (or sync) commits the journal.
	if fi, _ := os.Stat(path); fi.Size() != int64(len(data)) {
		t.Fatalf("Open mutated an uncommitted journal: %d bytes", fi.Size())
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(lines[0])+len(lines[1])) {
		t.Fatalf("commit did not truncate to the valid prefix: %d bytes", fi.Size())
	}
}

// TestFaultInjectedJournalSalvaged runs our own fault injector over a
// journal — the same injector the campaign uses against captures — and
// checks resume-side salvage: whatever survives is a valid prefix of
// intact entries, and the journal stays usable.
func TestFaultInjectedJournalSalvaged(t *testing.T) {
	path := writeEntries(t, 40)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[string]string{}
	j0, entries, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		orig[e.Key] = string(e.Payload)
	}
	j0.Close() // release the lock before the salvage loop reopens the path

	corrupted := false
	for seed := int64(1); seed <= 3; seed++ {
		inj := faults.New(seed, faults.Rates{GarbleField: 0.25, Interleave: 0.1, DupLine: 0.1})
		bad := inj.Corrupt(string(data))
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, sal, err := Open(path)
		if err != nil {
			t.Fatalf("seed %d: Open must salvage, not fail: %v", seed, err)
		}
		if !sal.Clean() {
			corrupted = true
		}
		for i, e := range entries {
			want, ok := orig[e.Key]
			if !ok || want != string(e.Payload) {
				t.Fatalf("seed %d: salvaged entry %d (%q) does not match an intact original", seed, i, e.Key)
			}
		}
		// The journal must remain appendable after salvage.
		if err := j.Append("post-salvage", payload{N: int(seed)}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j2, again, sal2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if !sal2.Clean() {
			t.Fatalf("seed %d: reopen after salvage+append not clean: %s", seed, sal2.Summary())
		}
		if len(again) != len(entries)+1 {
			t.Fatalf("seed %d: reopen entries = %d, want %d", seed, len(again), len(entries)+1)
		}
	}
	if !corrupted {
		t.Fatal("no seed produced corruption; raise rates so the test exercises salvage")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", payload{}); err == nil {
		t.Fatal("Append after Close must fail")
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync after Close must be a no-op, got %v", err)
	}
}

func TestUnencodablePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("k", func() {}); err == nil {
		t.Fatal("unencodable payload must fail")
	}
	// The failed append must not have written anything.
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("failed append wrote %d bytes", fi.Size())
	}
}

// TestInvalidUTF8KeyRejected: a key that is not valid UTF-8 fails and
// writes nothing, so the entries before and after it reopen intact.
func TestInvalidUTF8KeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("ok", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("bad\xffkey", payload{N: 2}); err == nil || !strings.Contains(err.Error(), "UTF-8") {
		t.Fatalf("invalid UTF-8 key: Append error %v, want one naming UTF-8", err)
	}
	if err := j.Append("after", payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !sal.Clean() || len(entries) != 2 || entries[0].Key != "ok" || entries[1].Key != "after" {
		t.Fatalf("reopened %s with %+v, want the entries ok and after", sal.Summary(), entries)
	}
}

// TestChecksumAllocatesNothing: digesting an entry, which Append does
// for every line it writes and Open for every line it scans, allocates
// nothing and writes the digits the retired hash.Hash32 and fmt form
// gave.
func TestChecksumAllocatesNothing(t *testing.T) {
	// The long key rules out a copy the compiler could keep on the
	// stack: that only happens for conversions of up to 32 bytes.
	key := strings.Repeat("OPT/A1/0/0/7/", 8)
	payload := []byte(`{"n":1}`)
	var sum [8]byte
	for _, c := range []struct {
		key     string
		payload []byte
	}{{"", nil}, {"k", nil}, {"", payload}, {key, payload}} {
		checksum(&sum, c.key, c.payload)
		if got, want := string(sum[:]), oracleChecksum(c.key, c.payload); got != want {
			t.Errorf("checksum(%q, %q) = %s, want %s", c.key, c.payload, got, want)
		}
	}
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	if allocs := testing.AllocsPerRun(100, func() { checksum(&sum, key, payload) }); allocs != 0 {
		t.Errorf("checksum allocates %.1f times per entry, want 0", allocs)
	}
}

// TestAppendConcurrent: appends from many goroutines share the
// journal's line buffer, payloads of many sizes mixed with payloads
// that cannot be encoded, one of them past the size the buffer is
// kept under. Every append that succeeded scans back as exactly one
// intact entry, no failed append leaves a byte behind, and the file
// reopens clean.
func TestAppendConcurrent(t *testing.T) {
	const goroutines, appends = 8, 50
	path := filepath.Join(t.TempDir(), "j")
	j, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // key → payload bytes, for the appends that must succeed
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				key := fmt.Sprintf("g%d/%d", g, i)
				var p any
				switch i % 5 {
				case 2:
					p = payload{N: i, S: strings.Repeat("<&>", (g*appends+i)*97%2000)}
				case 3:
					p = json.RawMessage(`{"torn":`)
				case 4:
					p = map[string]any{"ch": make(chan int)}
				default:
					n := (g*appends + i) * 89 % 6000
					if g == 0 && i == appends/2 {
						n = maxKeptLine
					}
					p = payload{N: i, S: strings.Repeat("x", n)}
				}
				err := j.Append(key, p)
				if i%5 >= 3 {
					if err == nil {
						t.Errorf("%s: unencodable payload appended", key)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				b, err := json.Marshal(p)
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				want[key] = string(b)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, entries, sal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !sal.Clean() {
		t.Fatalf("concurrent appends left a damaged journal: %s", sal.Summary())
	}
	if len(entries) != len(want) || len(want) != goroutines*appends*3/5 {
		t.Fatalf("%d entries for %d successful appends, want %d", len(entries), len(want), goroutines*appends*3/5)
	}
	for _, e := range entries {
		p, ok := want[e.Key]
		if !ok {
			t.Fatalf("entry %q appears twice or was never appended", e.Key)
		}
		if string(e.Payload) != p {
			t.Fatalf("entry %q: payload of %d bytes differs from the %d appended", e.Key, len(e.Payload), len(p))
		}
		delete(want, e.Key)
	}
}
