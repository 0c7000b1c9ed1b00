package faults

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/racecheck"
)

// fuzzRates maps a fuzzed shape selector and rate onto the four rate
// shapes the parity fuzzer sweeps.
func fuzzRates(shape uint8, rate float64) Rates {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	rate = min(rate, 1)
	switch shape % 4 {
	case 0:
		return Profile(rate)
	case 1:
		return Uniform(rate)
	case 2: // structural only
		return Rates{ClockJump: rate, ReorderSwap: rate, Restart: rate, Truncate: rate}
	default:
		return Rates{Truncate: 1, GarbleField: rate}
	}
}

// snapshotJSON renders a registry's counters for comparison.
func snapshotJSON(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzInjectorParity holds the pooled, whole-capture reader to the
// string-based streaming oracle: the same bytes and the same fault
// counts for any input, seed, rate and rate shape, whether drained by
// Corrupt or one byte per Read.
func FuzzInjectorParity(f *testing.F) {
	f.Add(sample(), int64(1), 0.1, uint8(0))
	f.Add(sample(), int64(2), 0.4, uint8(1))
	f.Add(sample(), int64(3), 0.5, uint8(2))
	f.Add(sample(), int64(4), 0.3, uint8(3))
	f.Add("", int64(5), 1.0, uint8(0))
	f.Add("\n", int64(6), 1.0, uint8(3))
	f.Add("garbage\n\n  indented orphan\n99:99:99.999 nonsense", int64(7), 0.9, uint8(0))
	f.Add("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\r\n  Physical Cell ID = 393\r\n \t\n", int64(8), 0.6, uint8(2))
	f.Add("+1:00:00.000 x\n\t00:00:01.000 y\n-0:00:01.5 z\n99999:59:59.999 w\n  a 1 2 3\n", int64(9), 1.0, uint8(2))
	// A line longer than the oracle's 32 KiB bufio window.
	f.Add("00:00:01.000 x\n  "+strings.Repeat("7", 40000)+" 12 3\n", int64(10), 0.8, uint8(3))
	f.Add("00:00:05.000 a\n00:00:01.000 b\n00:00:09.000 c\n00:00:03.000 d\n", int64(11), 1.0, uint8(2))
	f.Fuzz(func(t *testing.T, input string, seed int64, rate float64, shape uint8) {
		rates := fuzzRates(shape, rate)
		refReg, reg := obs.NewRegistry(), obs.NewRegistry()
		want := refCorrupt(New(seed, rates).WithCollector(refReg), input)
		if got := New(seed, rates).WithCollector(reg).Corrupt(input); got != want {
			t.Fatalf("Corrupt diverges from the oracle:\n got %q\nwant %q", got, want)
		}
		if got, want := snapshotJSON(t, reg), snapshotJSON(t, refReg); got != want {
			t.Fatalf("fault counts diverge from the oracle:\n got %s\nwant %s", got, want)
		}
		got, err := io.ReadAll(iotest.OneByteReader(New(seed, rates).Reader(strings.NewReader(input))))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("one-byte reads diverge from the oracle:\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzHeaderTime holds the in-place header scan to the Sscanf scan it
// replaced, verdict and value.
func FuzzHeaderTime(f *testing.F) {
	for _, line := range []string{
		"00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest",
		"23:59:59.999 SYS -- EXCEPTION",
		"00:60:00.000 x", "00:00:60.000 x", "99:99:99.999 nonsense",
		"+1:00:00.000 x", "-0:00:01.5 x", "\t00:00:01.000 x", "00:00:01.000abc x",
		"0:0:1.5 x", "9999999999999999999:00:00.000 x", "00:00:01.000",
		" 00:00:01.000 x", "\xc2\x8500:00:01.000 x", "\xff00:00:01.000 x",
		"00:00:01.0001 x", "00:\t01:02.003 x", "0x17DE  LTE ML1 Serving Cell Measurement Result",
		"  Physical Cell ID = 393", " 00:00:01.000 x", "", "0", "00:00:01.000 ",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		wantAt, wantOK := refHeaderTime(line)
		gotAt, gotOK := headerTime([]byte(line))
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("headerTime(%q) = %v, %v; Sscanf scan says %v, %v", line, gotAt, gotOK, wantAt, wantOK)
		}
	})
}

// bigCapture renders capture-shaped text of at least size bytes.
func bigCapture(size int) string {
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		b.WriteString(formatClock(time.Duration(i) * 250 * time.Millisecond))
		b.WriteString(" NR5G RRC OTA Packet -- UL_DCCH / MeasurementReport\n")
		b.WriteString("  measResult {cell 393@521310, role serving, rsrp -95.3, rsrq -11.5}\n")
		b.WriteString("  measResult {cell 273@387410, role neighbor, rsrp -101.0, rsrq -14.5}\n")
	}
	return b.String()
}

// fastest returns the shortest of five timed runs of fn.
func fastest(fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// TestTruncateHoldPastWindow covers a capture whose output outgrows
// truncateHold, the most a cut may remove: the output equals the
// oracle's, and truncating costs a bounded factor over not truncating,
// so no step of the cut grows faster than the output.
func TestTruncateHoldPastWindow(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector distorts the relative cost this test bounds")
	}
	text := bigCapture(3 << 20)
	on, off := Rates{Truncate: 1, GarbleField: 0.01}, Rates{GarbleField: 0.01}
	got := New(9, on).Corrupt(text)
	if want := refCorrupt(New(9, on), text); got != want {
		t.Fatalf("output diverges from the oracle: %d vs %d bytes", len(got), len(want))
	}
	if len(got) >= len(text) || len(got) < len(text)/2 {
		t.Fatalf("truncated to %d of %d bytes, want a cut in the second half", len(got), len(text))
	}
	tOn := fastest(func() { New(9, on).Corrupt(text) })
	tOff := fastest(func() { New(9, off).Corrupt(text) })
	if tOn > 4*tOff {
		t.Errorf("Truncate on took %v, more than 4× the %v with it off", tOn, tOff)
	}
}

// TestReaderAfterEOF: the terminal Read returns the pooled state, and
// every later Read repeats io.EOF without touching it — even after
// another reader has taken the recycled buffers.
func TestReaderAfterEOF(t *testing.T) {
	text := sample()
	for _, rates := range []Rates{{}, Profile(0.2), {Truncate: 1}} {
		r := New(1, rates).Reader(strings.NewReader(text))
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := refCorrupt(New(1, rates), text); string(got) != want {
			t.Fatalf("rates %+v: output diverges from the oracle", rates)
		}
		buf := make([]byte, 64)
		for i := 0; i < 2; i++ {
			if n, err := r.Read(buf); n != 0 || err != io.EOF {
				t.Fatalf("rates %+v: Read past EOF = %d, %v; want 0, EOF", rates, n, err)
			}
		}
		if _, err := io.ReadAll(New(2, rates).Reader(strings.NewReader(text))); err != nil {
			t.Fatal(err)
		}
		if n, err := r.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("rates %+v: Read past EOF after reuse = %d, %v; want 0, EOF", rates, n, err)
		}
	}
}

// TestReaderAfterSourceError: when the source fails, the lines it
// delivered whole are corrupted and served, then its error, which every
// later Read repeats — the oracle's bytes and error wherever in the
// capture the failure falls.
func TestReaderAfterSourceError(t *testing.T) {
	errSource := errors.New("source failed")
	for _, tc := range []struct{ name, text string }{
		{"after a whole line", sample()},
		{"inside a line", sample() + "00:02:00.000 NR5G RRC OTA Pa"},
		{"inside a line past 32 KiB", sample() + "  " + strings.Repeat("7", 40000) + " 12 3"},
		{"before any byte", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := func() io.Reader { return io.MultiReader(strings.NewReader(tc.text), iotest.ErrReader(errSource)) }
			for _, rates := range []Rates{Profile(0.2), {Truncate: 1}} {
				want, wantErr := io.ReadAll(refReader(New(4, rates), src()))
				r := New(4, rates).Reader(src())
				got, err := io.ReadAll(r)
				if string(got) != string(want) || err != wantErr || err != errSource {
					t.Fatalf("rates %+v: got %d bytes and %v, want the oracle's %d bytes and %v",
						rates, len(got), err, len(want), wantErr)
				}
				for i := 0; i < 2; i++ {
					if n, err := r.Read(make([]byte, 8)); n != 0 || err != errSource {
						t.Fatalf("rates %+v: Read after the error = %d, %v; want 0, %v", rates, n, err, errSource)
					}
				}
			}
		})
	}
}

// stalledReader returns no bytes and no error, forever.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestReaderStalledSource: a source that stops making progress without
// failing ends the reader with io.ErrNoProgress after the lines it
// delivered whole, as the oracle's bufio window does, instead of
// hanging it.
func TestReaderStalledSource(t *testing.T) {
	src := func() io.Reader { return io.MultiReader(strings.NewReader(sample()), stalledReader{}) }
	want, wantErr := io.ReadAll(refReader(New(4, Profile(0.2)), src()))
	got, err := io.ReadAll(New(4, Profile(0.2)).Reader(src()))
	if string(got) != string(want) || err != wantErr || err != io.ErrNoProgress {
		t.Fatalf("got %d bytes and %v, want the oracle's %d bytes and %v", len(got), err, len(want), wantErr)
	}
}

// TestReaderParallelPooled runs readers with distinct seeds in
// parallel, all drawing on the pool, and requires each output to equal
// its sequential one. Run under -race it also checks that no two
// readers share pooled state.
func TestReaderParallelPooled(t *testing.T) {
	text := sample()
	const readers, reps = 8, 10
	want := make([]string, readers)
	for i := range want {
		want[i] = New(int64(i), Profile(0.2)).Corrupt(text)
	}
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				got, err := io.ReadAll(iotest.HalfReader(New(int64(i), Profile(0.2)).Reader(strings.NewReader(text))))
				if err == nil && string(got) != want[i] {
					err = errors.New("output diverges from the sequential run")
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", i, err)
		}
	}
}

// TestReaderSteadyStateAllocs: with its state drawn from the pool, a
// reader allocates only its handle and the source wrapper per capture,
// whatever the capture's length — nothing per line, per block or per
// line-level fault. (A clock rewrite, from ClockJump or after a
// Restart, renders its new clock as a string.)
func TestReaderSteadyStateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	text := strings.Repeat(sample(), 8)
	swapped := Uniform(0.2)
	swapped.ReorderSwap = 0.2
	for _, rates := range []Rates{swapped, {Truncate: 1, GarbleField: 0.2}} {
		in := New(1, rates)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := io.Copy(io.Discard, in.Reader(strings.NewReader(text))); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("rates %+v: %.0f allocs per capture, want at most 2", rates, allocs)
		}
	}
}
