package throughput

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/stats"
	"github.com/mssn/loopscope/internal/trace"
)

// gen is Generate over a fresh generator seeded with seed.
func gen(tl *trace.Timeline, op *policy.Operator, seed int64) []Sample {
	return Generate(tl, op, rand.New(rand.NewSource(seed)))
}

// oracleGenerate is Generate as it was before it computed a step's ON
// median once per step: every second of a 5G step recomputes the
// aggregate width and its power, and the series draws from a fresh
// source of seed.
func oracleGenerate(tl *trace.Timeline, op *policy.Operator, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	n := int(tl.Duration / time.Second)
	out := make([]Sample, 0, n)
	stepIdx := 0
	onStreak := 0
	for s := 0; s < n; s++ {
		at := time.Duration(s) * time.Second
		for stepIdx+1 < len(tl.Steps) && tl.Steps[stepIdx+1].At <= at {
			stepIdx++
		}
		set := tl.Steps[stepIdx].Set
		mbps := 0.0
		switch {
		case set.Uses5G():
			onStreak++
			mbps = oracleOnSpeed(set, op, rng)
			if onStreak <= rampSeconds {
				mbps *= 0.3 + 0.35*float64(onStreak)
			}
		case set.IsIdle():
			onStreak = 0
			mbps = 0
		default: // 4G only
			onStreak = 0
			mbps = lognorm(op.MedianOffMbps, 0.30, rng)
		}
		out = append(out, Sample{At: at, Mbps: mbps})
	}
	return out
}

// oracleOnSpeed is the 5G-ON speed of one second as oracleGenerate drew
// it.
func oracleOnSpeed(set cell.Set, op *policy.Operator, rng *rand.Rand) float64 {
	width := oracleAggregateNRWidth(set)
	factor := math.Pow(width/refWidthMHz, 0.6)
	if op.Mode == policy.ModeNSA {
		factor = math.Pow(width/60.0, 0.4)
	}
	return lognorm(op.MedianOnMbps*factor, 0.25, rng)
}

// oracleAggregateNRWidth is aggregateNRWidth as it was, over each
// group's Cells slice.
func oracleAggregateNRWidth(set cell.Set) float64 {
	var sum float64
	add := func(g *cell.Group) {
		if g == nil || g.RAT != band.RATNR {
			return
		}
		for _, ref := range g.Cells() {
			sum += band.DefaultWidthMHz(band.RATNR, ref.Channel)
		}
	}
	add(set.MCG)
	add(set.SCG)
	if sum <= 0 {
		sum = 20 // no aggregated carriers: assume one 20 MHz LTE channel
	}
	return sum
}

// oracleCycleSpeeds is CycleSpeeds as it was before it found a cycle's
// samples by binary search: every cycle scans every sample.
func oracleCycleSpeeds(samples []Sample, tl *trace.Timeline, cycles []Cycle) []CycleSpeed {
	var out []CycleSpeed
	for _, c := range cycles {
		var on, off []float64
		for _, s := range samples {
			if s.At < c.Start || s.At >= c.Start+c.Total {
				continue
			}
			if in5G(tl, s.At) {
				on = append(on, s.Mbps)
			} else {
				off = append(off, s.Mbps)
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		out = append(out, CycleSpeed{OnMedian: stats.Median(on), OffMedian: stats.Median(off)})
	}
	return out
}

// TestGenerateMatchesOracle: over every looping record of the
// full-scale seed-42 study, the series Generate draws from one
// generator reseeded per record, as Fig. 11 draws them, and the cycle
// speeds of every loop are bit for bit the oracles'.
func TestGenerateMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study in -short mode")
	}
	st, err := campaign.RunContext(context.Background(), campaign.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	looping, cycles := 0, 0
	for i, rec := range st.Records("") {
		if !rec.HasLoop() {
			continue
		}
		looping++
		op := policy.ByName(rec.Op)
		seed := int64(42 + i)
		rng.Seed(seed)
		got, want := Generate(rec.Timeline, op, rng), oracleGenerate(rec.Timeline, op, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s/%d/%d: series differs from the oracle's", rec.Op, rec.Area, rec.LocIndex, rec.RunIndex)
		}
		for _, loop := range rec.Analysis.Loops {
			var cs []Cycle
			for _, cm := range loop.Cycles() {
				cs = append(cs, Cycle{Start: cm.Start, Total: cm.Cycle()})
			}
			cycles += len(cs)
			if got, want := CycleSpeeds(got, rec.Timeline, cs), oracleCycleSpeeds(want, rec.Timeline, cs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s/%d/%d: cycle speeds %v, the oracle's %v", rec.Op, rec.Area, rec.LocIndex, rec.RunIndex, got, want)
			}
		}
	}
	if looping == 0 || cycles == 0 {
		t.Fatalf("%d looping records with %d cycles; the test needs both", looping, cycles)
	}
	t.Logf("%d looping records, %d cycles", looping, cycles)
}

func ref(s string) cell.Ref { return cell.MustRef(s) }

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// saLoopTimeline builds a timeline that is ON for 20 s, IDLE for 10 s,
// then ON again until 60 s.
func saLoopTimeline() *trace.Timeline {
	l := &sig.Log{}
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(3000), rrc.Reconfig{Rat: band.RATNR, Serving: ref("393@521310"),
		AddSCells: []rrc.SCellEntry{
			{Index: 1, Cell: ref("273@387410")},
			{Index: 2, Cell: ref("273@398410")},
			{Index: 3, Cell: ref("393@501390")},
		}})
	l.Append(at(3010), rrc.ReconfigComplete{Rat: band.RATNR})
	l.Append(at(20000), rrc.Release{Rat: band.RATNR})
	l.Append(at(30000), rrc.SetupComplete{Rat: band.RATNR, Cell: ref("393@521310")})
	l.Append(at(60000), rrc.MeasReport{Rat: band.RATNR})
	return trace.Extract(l)
}

// nsaTimeline is NSA for 20 s, then 4G-only.
func nsaTimeline() *trace.Timeline {
	l := &sig.Log{}
	sp := ref("53@632736")
	l.Append(at(100), rrc.SetupComplete{Rat: band.RATLTE, Cell: ref("380@5145")})
	l.Append(at(1000), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), SpCell: &sp})
	l.Append(at(1010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(20000), rrc.Reconfig{Rat: band.RATLTE, Serving: ref("380@5145"), SCGRelease: true})
	l.Append(at(20010), rrc.ReconfigComplete{Rat: band.RATLTE})
	l.Append(at(40000), rrc.MeasReport{Rat: band.RATLTE})
	return trace.Extract(l)
}

func TestGenerateShapesSA(t *testing.T) {
	tl := saLoopTimeline()
	op := policy.OPT()
	samples := gen(tl, op, 1)
	if len(samples) != 60 {
		t.Fatalf("samples = %d, want 60", len(samples))
	}
	var on, idle []float64
	for _, s := range samples {
		switch {
		case s.At >= 5*time.Second && s.At < 19*time.Second:
			on = append(on, s.Mbps)
		case s.At >= 21*time.Second && s.At < 29*time.Second:
			idle = append(idle, s.Mbps)
		}
	}
	if med := stats.Median(on); med < 100 || med > 320 {
		t.Errorf("ON median = %.1f, want around %v", med, op.MedianOnMbps)
	}
	for _, v := range idle {
		if v != 0 {
			t.Fatalf("IDLE speed = %v, want 0 (data suspended)", v)
		}
	}
}

func TestGenerateShapesNSA(t *testing.T) {
	tl := nsaTimeline()
	op := policy.OPA()
	samples := gen(tl, op, 2)
	var on, lte []float64
	for _, s := range samples {
		if s.At >= 3*time.Second && s.At < 19*time.Second {
			on = append(on, s.Mbps)
		}
		if s.At >= 22*time.Second {
			lte = append(lte, s.Mbps)
		}
	}
	onMed, lteMed := stats.Median(on), stats.Median(lte)
	if onMed <= lteMed {
		t.Errorf("5G ON median (%.1f) must beat the 4G floor (%.1f)", onMed, lteMed)
	}
	if lteMed < 5 {
		t.Errorf("4G floor = %.1f, want a usable fallback (F4)", lteMed)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tl := saLoopTimeline()
	a := gen(tl, policy.OPT(), 5)
	b := gen(tl, policy.OPT(), 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce the series")
		}
	}
	c := gen(tl, policy.OPT(), 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestRampAfterRecovery(t *testing.T) {
	tl := saLoopTimeline()
	samples := gen(tl, policy.OPT(), 3)
	// The first ON second after the 10 s IDLE must be slower than the
	// steady state a few seconds later (TCP refill).
	var first, steady float64
	for _, s := range samples {
		if s.At == 30*time.Second {
			first = s.Mbps
		}
		if s.At == 40*time.Second {
			steady = s.Mbps
		}
	}
	if first >= steady {
		t.Errorf("ramp missing: first ON second %.1f ≥ steady %.1f", first, steady)
	}
}

func TestAggregateWidthScales(t *testing.T) {
	// A single-PCell bundle must be slower than PCell + 3 SCells.
	single := cell.Set{MCG: cell.NewGroup(band.RATNR, ref("393@521310"))}
	full := single.Clone()
	full.MCG.AddSCell(ref("273@387410"))
	full.MCG.AddSCell(ref("273@398410"))
	full.MCG.AddSCell(ref("393@501390"))
	if aggregateNRWidth(single) >= aggregateNRWidth(full) {
		t.Error("aggregate width must grow with SCells")
	}
	idle := cell.Idle()
	if aggregateNRWidth(idle) != 20 {
		t.Errorf("idle fallback width = %v", aggregateNRWidth(idle))
	}
	nsa := cell.Set{MCG: cell.NewGroup(band.RATLTE, ref("380@5145")), SCG: full.MCG.Clone()}
	for _, set := range []cell.Set{single, full, idle, nsa} {
		if got, want := aggregateNRWidth(set), oracleAggregateNRWidth(set); got != want {
			t.Errorf("%v: width %v, the oracle's %v", set, got, want)
		}
	}
}

func TestCycleSpeeds(t *testing.T) {
	tl := saLoopTimeline()
	samples := gen(tl, policy.OPT(), 9)
	cycles := []Cycle{{Start: 0, Total: 30 * time.Second}}
	cs := CycleSpeeds(samples, tl, cycles)
	if len(cs) != 1 {
		t.Fatalf("cycle speeds = %d", len(cs))
	}
	if cs[0].OnMedian <= cs[0].OffMedian {
		t.Errorf("ON median %.1f should beat OFF median %.1f", cs[0].OnMedian, cs[0].OffMedian)
	}
	if math.Abs(cs[0].Loss()-(cs[0].OnMedian-cs[0].OffMedian)) > 1e-9 {
		t.Error("Loss mismatch")
	}
	// A window with no OFF samples is skipped.
	empty := CycleSpeeds(samples, tl, []Cycle{{Start: 5 * time.Second, Total: 2 * time.Second}})
	if len(empty) != 0 {
		t.Errorf("expected skip, got %v", empty)
	}
}

// in5GLinear is the replaced linear rescan, kept verbatim as the
// equivalence oracle for the binary-search in5G.
func in5GLinear(tl *trace.Timeline, at time.Duration) bool {
	on := false
	for _, s := range tl.Steps {
		if s.At > at {
			break
		}
		on = s.Set.Uses5G()
	}
	return on
}

// TestIn5GMatchesLinearScan: the sort.Search rewrite must agree with
// the old linear scan at every instant, including exact step boundaries
// and instants outside the observation.
func TestIn5GMatchesLinearScan(t *testing.T) {
	for name, tl := range map[string]*trace.Timeline{
		"sa-loop": saLoopTimeline(),
		"nsa":     nsaTimeline(),
		"empty":   {},
	} {
		// Probe every 100 ms plus the exact step instants and ±1ns around
		// them.
		var probes []time.Duration
		for at := -time.Second; at <= tl.Duration+2*time.Second; at += 100 * time.Millisecond {
			probes = append(probes, at)
		}
		for _, s := range tl.Steps {
			probes = append(probes, s.At-1, s.At, s.At+1)
		}
		for _, p := range probes {
			if got, want := in5G(tl, p), in5GLinear(tl, p); got != want {
				t.Fatalf("%s: in5G(%v) = %v, linear scan says %v", name, p, got, want)
			}
		}
	}
}

// BenchmarkCycleSpeeds exercises the hot path the in5G binary search
// optimizes: every sample of every cycle queries the timeline.
func BenchmarkCycleSpeeds(b *testing.B) {
	tl := saLoopTimeline()
	samples := gen(tl, policy.OPT(), 9)
	cycles := []Cycle{
		{Start: 0, Total: 30 * time.Second},
		{Start: 30 * time.Second, Total: 30 * time.Second},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := CycleSpeeds(samples, tl, cycles); len(cs) == 0 {
			b.Fatal("no cycle speeds")
		}
	}
}

func TestLognormZeroMedian(t *testing.T) {
	tl := saLoopTimeline()
	// OPT's OFF median is 0: the generator must not emit negatives.
	for _, s := range gen(tl, policy.OPT(), 11) {
		if s.Mbps < 0 {
			t.Fatalf("negative speed %v", s.Mbps)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	tl := saLoopTimeline()
	op := policy.OPT()
	bulk := GenerateWorkload(tl, op, 3, WorkloadBulkDownload)
	upload := GenerateWorkload(tl, op, 3, WorkloadFileUpload)
	video := GenerateWorkload(tl, op, 3, WorkloadVideoStream)
	live := GenerateWorkload(tl, op, 3, WorkloadLiveStream)
	if len(upload) != len(bulk) || len(video) != len(bulk) || len(live) != len(bulk) {
		t.Fatal("length mismatch across workloads")
	}
	for i := range bulk {
		if upload[i].Mbps > bulk[i].Mbps {
			t.Fatal("uplink cannot exceed downlink")
		}
		if video[i].Mbps > videoBitrateMbps+1e-9 {
			t.Fatalf("video above its bitrate: %v", video[i].Mbps)
		}
		if live[i].Mbps > liveBitrateMbps*1.3 {
			t.Fatalf("live stream far above its bitrate: %v", live[i].Mbps)
		}
	}
	// The video buffer carries playback into the early OFF seconds.
	offStart := 20 // the timeline goes IDLE at 20 s
	if video[offStart+1].Mbps <= bulk[offStart+1].Mbps {
		t.Errorf("video buffer should outlast the raw link: video=%v bulk=%v",
			video[offStart+1].Mbps, bulk[offStart+1].Mbps)
	}
}

func TestWorkloadStallSeconds(t *testing.T) {
	tl := saLoopTimeline() // 10 s IDLE window
	op := policy.OPT()
	live := GenerateWorkload(tl, op, 5, WorkloadLiveStream)
	video := GenerateWorkload(tl, op, 5, WorkloadVideoStream)
	sLive := StallSeconds(live, WorkloadLiveStream)
	sVideo := StallSeconds(video, WorkloadVideoStream)
	if sLive < 5*time.Second {
		t.Errorf("live stream should stall through the OFF window, got %v", sLive)
	}
	if sVideo > sLive {
		t.Errorf("buffered video (%v) should stall no more than live (%v)", sVideo, sLive)
	}
}

func TestWorkloadString(t *testing.T) {
	names := map[Workload]string{
		WorkloadBulkDownload: "bulk-download",
		WorkloadFileUpload:   "file-upload",
		WorkloadVideoStream:  "video-stream",
		WorkloadLiveStream:   "live-stream",
	}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("%d = %q", w, w)
		}
	}
	if Workload(9).String() != "Workload(9)" {
		t.Error("unknown workload string")
	}
}
