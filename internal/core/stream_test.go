package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
)

// renderAnalysis flattens everything the acceptance criteria pin —
// loops, forms, fingerprints, cycle metrics, sub-types — into a
// canonical byte string so stream/batch comparisons are byte-identical,
// not merely structurally similar.
func renderAnalysis(a Analysis) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loops=%d\n", len(a.Loops))
	for i, l := range a.Loops {
		fmt.Fprintf(&sb, "[%d] start=%d len=%d reps=%d end=%d form=%s sub=%s fp=%s\n",
			i, l.Start, l.CycleLen, l.Reps, l.End, l.Form, a.Subtypes[i], l.Fingerprint())
		fmt.Fprintf(&sb, "    keys=%q\n    cycles=%v\n", l.CycleKeys(), l.Cycles())
	}
	return sb.String()
}

// streamReplay pushes every step of tl through a fresh detector and
// flushes at the timeline duration.
func streamReplay(tl *trace.Timeline, cfg StreamConfig) ([]StreamLoop, *StreamDetector) {
	sd := NewStreamDetector(cfg)
	for _, s := range tl.Steps {
		sd.Push(s)
	}
	return sd.Flush(tl.Duration), sd
}

// assertStreamParity replays tl through the detector at the given
// horizon and requires byte-identical output against the oracle.
func assertStreamParity(t *testing.T, tl *trace.Timeline, horizon int) {
	t.Helper()
	batch := oracleAnalysis(tl, horizon)
	recs, sd := streamReplay(tl, StreamConfig{Horizon: horizon})
	got := sd.FinishAnalysis(tl)
	if want, have := renderAnalysis(batch), renderAnalysis(got); want != have {
		t.Fatalf("horizon %d: stream output diverges from the oracle\noracle:\n%s\nstream:\n%s",
			horizon, want, have)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("horizon %d: FinishAnalysis not deep-equal to the oracle analysis", horizon)
	}
	// The self-contained records must carry the same values the oracle
	// loops compute lazily from the full timeline.
	for i, sl := range recs {
		l := batch.Loops[i]
		if !reflect.DeepEqual(sl.CycleKeys, l.CycleKeys()) {
			t.Errorf("loop %d: stream keys %q, batch %q", i, sl.CycleKeys, l.CycleKeys())
		}
		if !reflect.DeepEqual(sl.Cycles, l.Cycles()) {
			t.Errorf("loop %d: stream cycles %v, batch %v", i, sl.Cycles, l.Cycles())
		}
		if sl.Fingerprint != l.Fingerprint() {
			t.Errorf("loop %d: stream fingerprint %s, batch %s", i, sl.Fingerprint, l.Fingerprint())
		}
		if sl.Subtype != batch.Subtypes[i] {
			t.Errorf("loop %d: stream subtype %v, batch %v", i, sl.Subtype, batch.Subtypes[i])
		}
	}
	if sd.Steps() != len(tl.Steps) {
		t.Errorf("Steps() = %d, want %d", sd.Steps(), len(tl.Steps))
	}
}

var parityHorizons = []int{0, 1, 2, 3, 4, 8}

// TestStreamMatchesBatchOnFixtures replays every synthetic fixture
// timeline — the unit-test builds and the Appendix C reconstructions —
// through the stream detector at several horizons and demands exact
// equivalence with the oracle's DetectAllHorizon.
func TestStreamMatchesBatchOnFixtures(t *testing.T) {
	fixtures := map[string]*trace.Timeline{
		"empty":     {Duration: at(1000)},
		"s1e3x1":    s1e3Timeline(1),
		"s1e3x2":    s1e3Timeline(2),
		"s1e3x5":    s1e3Timeline(5),
		"s1e1":      s1e12Timeline(false),
		"s1e2":      s1e12Timeline(true),
		"nsa-rlf":   nsaTimeline("rlf", 3),
		"nsa-hof":   nsaTimeline("hof", 3),
		"nsa-ho":    nsaTimeline("handover", 4),
		"nsa-scgf":  nsaTimeline("scgfail", 2),
		"two-loops": twoLoopTimeline(),
	}
	for name, build := range appendixLogs {
		fixtures[name] = trace.Extract(build())
	}
	for name, tl := range fixtures {
		t.Run(name, func(t *testing.T) {
			for _, h := range parityHorizons {
				assertStreamParity(t, tl, h)
			}
		})
	}
}

// TestStreamGoldenReplay replays every committed golden capture —
// including the corrupt ones, salvaged leniently like a live tail —
// through Analyze and the stream detector and requires byte-identical
// analysis output against the oracle on the complete timeline.
func TestStreamGoldenReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "sig", "testdata", "*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden captures found: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			log, _, err := sig.ParseLenientObserved(f, nil)
			if err != nil {
				t.Fatalf("lenient parse: %v", err)
			}
			tl := trace.FromLog(log)
			if got, want := renderAnalysis(Analyze(tl)),
				renderAnalysis(oracleAnalysis(tl, 0)); got != want {
				t.Fatalf("Analyze diverges from the oracle\noracle:\n%s\nAnalyze:\n%s", want, got)
			}
			for _, h := range parityHorizons {
				assertStreamParity(t, tl, h)
			}
		})
	}
}

// twoLoopTimeline builds a capture whose first loop closes II-SP
// mid-stream (the cell-set sequence changes) and whose second runs to
// the end of the capture (II-P).
func twoLoopTimeline() *trace.Timeline {
	onA := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("393@521310"))}
	onB := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("540@501390"))}
	steps := []trace.Step{{At: 0, Set: cell.Idle()}}
	ms := 1000
	add := func(s cell.Set) {
		steps = append(steps, trace.Step{At: at(ms), Set: s})
		ms += 1000
	}
	for i := 0; i < 3; i++ { // 3 reps of (onA, idle)
		add(onA)
		add(cell.Idle())
	}
	for i := 0; i < 2; i++ { // breaking key, then 2 reps of (onB, idle)
		add(onB)
		add(cell.Idle())
	}
	return &trace.Timeline{Steps: steps, Duration: at(ms)}
}

// TestStreamEventCadence pins the evidence-emission contract: confirmed
// exactly once per loop when the second repetition completes, one rep
// event per later repetition, closed once with the final form.
func TestStreamEventCadence(t *testing.T) {
	tl := twoLoopTimeline()
	var events []StreamEvent
	recs, _ := streamReplay(tl, StreamConfig{OnEvent: func(e StreamEvent) {
		events = append(events, e)
	}})
	if len(recs) != 2 {
		t.Fatalf("loops = %d, want 2", len(recs))
	}
	if recs[0].Form != FormSemiPersistent || recs[1].Form != FormPersistent {
		t.Fatalf("forms = %v, %v; want II-SP then II-P", recs[0].Form, recs[1].Form)
	}
	counts := map[string]map[StreamEventKind]int{}
	for _, e := range events {
		m := counts[e.Loop.Fingerprint]
		if m == nil {
			m = map[StreamEventKind]int{}
			counts[e.Loop.Fingerprint] = m
		}
		m[e.Kind]++
		if e.Kind != StreamClosed && e.Loop.Form != FormNoLoop {
			t.Errorf("%s event carries final form %v before close", e.Kind, e.Loop.Form)
		}
	}
	for i, rec := range recs {
		m := counts[rec.Fingerprint]
		if m[StreamConfirmed] != 1 {
			t.Errorf("loop %d: confirmed %d times, want exactly 1", i, m[StreamConfirmed])
		}
		if m[StreamClosed] != 1 {
			t.Errorf("loop %d: closed %d times, want exactly 1", i, m[StreamClosed])
		}
		if want := rec.Reps - MinReps; m[StreamRep] != want {
			t.Errorf("loop %d: %d rep events, want %d", i, m[StreamRep], want)
		}
	}
	// The closed snapshot is the final record, metrics included.
	var lastClosed []StreamLoop
	for _, e := range events {
		if e.Kind == StreamClosed {
			lastClosed = append(lastClosed, e.Loop)
		}
	}
	if !reflect.DeepEqual(lastClosed, recs) {
		t.Errorf("closed-event snapshots differ from Flush records\nevents: %+v\nflush:  %+v",
			lastClosed, recs)
	}
	// Event times must be non-decreasing and within the capture.
	prev := time.Duration(-1)
	for _, e := range events {
		if e.At < prev {
			t.Errorf("event times regress: %v after %v", e.At, prev)
		}
		prev = e.At
	}
}

// TestStreamBoundedWindow verifies the memory contract: with Horizon H
// the retained window never exceeds 2H+2 steps, even on adversarial
// never-repeating input, and output still equals the oracle's
// DetectAllHorizon.
func TestStreamBoundedWindow(t *testing.T) {
	const H = 4
	const n = 400
	steps := make([]trace.Step, 0, n)
	for i := 0; i < n; i++ {
		s := cell.Idle()
		if i%2 == 0 {
			// Distinct PCI each time: every candidate cycle is eventually
			// rejected, the worst case for retention.
			s = cell.Set{MCG: cell.NewGroup(band.RATNR, ref(fmt.Sprintf("%d@521310", 1+i%1007)))}
		}
		steps = append(steps, trace.Step{At: at(i * 500), Set: s})
	}
	tl := &trace.Timeline{Steps: steps, Duration: at(n * 500)}
	reg := obs.NewRegistry()
	sd := NewStreamDetector(StreamConfig{Horizon: H, Metrics: reg})
	for _, s := range tl.Steps {
		sd.Push(s)
		if r := sd.Retained(); r > 2*H+2 {
			t.Fatalf("retained %d steps after step %d, bound is %d", r, sd.Steps(), 2*H+2)
		}
	}
	if !reflect.DeepEqual(sd.FinishAnalysis(tl), oracleAnalysis(tl, H)) {
		t.Error("bounded stream diverges from the oracle's DetectAllHorizon")
	}
	if got := reg.Counter("detect.stream.evicted").Value(); got == 0 {
		t.Error("bounded run evicted no steps")
	}
	if got, want := reg.Counter("detect.stream.steps").Value(), int64(n); got != want {
		t.Errorf("detect.stream.steps = %d, want %d", got, want)
	}
	if got, want := reg.Gauge("detect.stream.window").Value(), int64(sd.Retained()); got != want {
		t.Errorf("detect.stream.window = %d, want %d", got, want)
	}
}

// TestStreamMetricsObserveOnly pins the obs contract for the stream
// counters: attaching a collector never changes detection output, and
// the counters report what actually happened.
func TestStreamMetricsObserveOnly(t *testing.T) {
	tl := twoLoopTimeline()
	reg := obs.NewRegistry()
	plain, _ := streamReplay(tl, StreamConfig{})
	observed, _ := streamReplay(tl, StreamConfig{Metrics: reg})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("metrics collector changed detection output")
	}
	if got, want := reg.Counter("detect.stream.steps").Value(), int64(len(tl.Steps)); got != want {
		t.Errorf("detect.stream.steps = %d, want %d", got, want)
	}
	if got := reg.Counter("detect.stream.confirmed").Value(); got != 2 {
		t.Errorf("detect.stream.confirmed = %d, want 2", got)
	}
	if got := reg.Counter("detect.stream.closed").Value(); got != 2 {
		t.Errorf("detect.stream.closed = %d, want 2", got)
	}
	if got := reg.Gauge("detect.stream.open").Value(); got != 0 {
		t.Errorf("detect.stream.open = %d after flush, want 0", got)
	}
}

// TestStreamFlushContract: Flush is idempotent, and Push after Flush
// panics like reusing a finished trace.Builder.
func TestStreamFlushContract(t *testing.T) {
	tl := s1e3Timeline(2)
	sd := NewStreamDetector(StreamConfig{})
	for _, s := range tl.Steps {
		sd.Push(s)
	}
	first := sd.Flush(tl.Duration)
	second := sd.Flush(tl.Duration + at(5000))
	if !reflect.DeepEqual(first, second) {
		t.Error("second Flush returned different records")
	}
	defer func() {
		if recover() == nil {
			t.Error("Push after Flush did not panic")
		}
	}()
	sd.Push(trace.Step{At: tl.Duration})
}

// TestStreamViaBuilderTee runs the fused path — sig events through
// trace.Builder with the detector teed — and requires the same analysis
// as the oracle over the finished timeline.
func TestStreamViaBuilderTee(t *testing.T) {
	log := &sig.Log{}
	base := 0
	for i := 0; i < 3; i++ {
		base = appendS1E3Cycle(log, base)
	}
	sd := NewStreamDetector(StreamConfig{})
	tb := trace.NewBuilder()
	tb.TeeSteps(sd.Push)
	for _, e := range log.Events {
		tb.Append(e.At, e.Msg)
	}
	tl := tb.Finish()
	got := sd.FinishAnalysis(tl)
	want := oracleAnalysis(tl, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("teed stream analysis diverges from the oracle\noracle:\n%s\nstream:\n%s",
			renderAnalysis(want), renderAnalysis(got))
	}
	if len(want.Loops) == 0 {
		t.Fatal("fixture produced no loop")
	}
}
