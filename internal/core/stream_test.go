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
	"github.com/mssn/loopscope/internal/racecheck"
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
// finishes the analysis over tl.
func streamReplay(tl *trace.Timeline, cfg StreamConfig) (Analysis, *StreamDetector) {
	sd := NewStreamDetector(cfg)
	for _, s := range tl.Steps {
		sd.Push(s)
	}
	return sd.FinishAnalysis(tl), sd
}

// assertStreamParity replays tl through the detector at the given
// horizon and requires byte-identical output against the oracle, the
// keys, fingerprints and cycles the detector computed included.
func assertStreamParity(t *testing.T, tl *trace.Timeline, horizon int) {
	t.Helper()
	batch := oracleAnalysis(tl, horizon)
	got, sd := streamReplay(tl, StreamConfig{Horizon: horizon})
	if want, have := renderAnalysis(batch), renderAnalysis(got); want != have {
		t.Fatalf("horizon %d: stream output diverges from the oracle\noracle:\n%s\nstream:\n%s",
			horizon, want, have)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("horizon %d: FinishAnalysis not deep-equal to the oracle analysis", horizon)
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
	var shown []string // each event's cycles as they read when it fired
	an, _ := streamReplay(tl, StreamConfig{OnEvent: func(e StreamEvent) {
		events = append(events, e)
		shown = append(shown, fmt.Sprint(e.Loop.Cycles()))
	}})
	recs := an.Loops
	if len(recs) != 2 {
		t.Fatalf("loops = %d, want 2", len(recs))
	}
	if recs[0].Form != FormSemiPersistent || recs[1].Form != FormPersistent {
		t.Fatalf("forms = %v, %v; want II-SP then II-P", recs[0].Form, recs[1].Form)
	}
	counts := map[string]map[StreamEventKind]int{}
	for _, e := range events {
		m := counts[e.Loop.Fingerprint()]
		if m == nil {
			m = map[StreamEventKind]int{}
			counts[e.Loop.Fingerprint()] = m
		}
		m[e.Kind]++
		if e.Kind != StreamClosed && e.Loop.Form != FormNoLoop {
			t.Errorf("%s event carries final form %v before close", e.Kind, e.Loop.Form)
		}
	}
	for i, rec := range recs {
		m := counts[rec.Fingerprint()]
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
	// An event's loop shares the detector's slices, so later steps must
	// not change what it showed.
	for i, e := range events {
		if got := fmt.Sprint(e.Loop.Cycles()); got != shown[i] {
			t.Errorf("event %d (%s): cycles changed from %s to %s", i, e.Kind, shown[i], got)
		}
	}
	// The closed event carries the final loop, metrics included.
	var closed Analysis
	for _, e := range events {
		if e.Kind == StreamClosed {
			closed.Loops = append(closed.Loops, e.Loop)
			closed.Subtypes = append(closed.Subtypes, e.Subtype)
		}
	}
	if got, want := renderAnalysis(closed), renderAnalysis(an); got != want {
		t.Errorf("closed events differ from the analysis\nevents:\n%s\nanalysis:\n%s", got, want)
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

// TestStreamOpenLoopPushAllocatesNothing pins the detector's per-step
// cost: once a loop is confirmed, each further cycle's steps are
// compared with the loop's cycle as sets, and pushing them allocates
// nothing. The loop's per-cycle record grows by doubling, which
// amortizes to less than one allocation per cycle, so it counts as 0.
func TestStreamOpenLoopPushAllocatesNothing(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	const runs = 100
	tl := s1e3Timeline(MinReps + 1 + runs)
	want := oracleAnalysis(tl, 0)
	if len(want.Loops) != 1 {
		t.Fatalf("fixture has %d loops, want 1", len(want.Loops))
	}
	l := want.Loops[0]
	sd := NewStreamDetector(StreamConfig{})
	next := 0
	push := func(n int) {
		for _, s := range tl.Steps[next : next+n] {
			sd.Push(s)
		}
		next += n
	}
	push(l.Start + MinReps*l.CycleLen)
	if sd.open == nil {
		t.Fatal("no loop open after two repetitions")
	}
	if allocs := testing.AllocsPerRun(runs, func() { push(l.CycleLen) }); allocs != 0 {
		t.Errorf("pushing a cycle of an open loop allocates %.1f times, want 0", allocs)
	}
	push(len(tl.Steps) - next)
	if got := sd.FinishAnalysis(tl); !reflect.DeepEqual(got, want) {
		t.Fatalf("analysis diverges from the oracle\noracle:\n%s\nstream:\n%s",
			renderAnalysis(want), renderAnalysis(got))
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

// TestStreamFlushContract: Flush is idempotent, so a second Flush at a
// later duration leaves the last cycle's metrics alone, and Push after
// Flush panics like reusing a finished trace.Builder.
func TestStreamFlushContract(t *testing.T) {
	tl := s1e3Timeline(2)
	sd := NewStreamDetector(StreamConfig{})
	for _, s := range tl.Steps {
		sd.Push(s)
	}
	sd.Flush(tl.Duration)
	sd.Flush(tl.Duration + at(5000))
	if !reflect.DeepEqual(sd.FinishAnalysis(tl), oracleAnalysis(tl, 0)) {
		t.Error("a second Flush changed the analysis")
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
