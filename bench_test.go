// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the pipeline stages. Each experiment benchmark
// runs its study and warms the derived datasets outside the timer, then
// measures the aggregation over one shared context, which is the
// quantity that scales with dataset size.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package loopscope_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/experiments"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/units"
)

// benchOpts keeps the shared benchmark dataset at a tractable size
// while exercising every code path of the full study.
func benchOpts() campaign.Options {
	return campaign.Options{Seed: 42, Duration: 2 * time.Minute, RunScale: 0.4}
}

// benchExperiment runs one table/figure generator b.N times over a
// shared context. These build full study datasets, so the CI smoke run
// (-short -benchtime=1x) skips them.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("full-study benchmark in -short mode")
	}
	g, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	st, err := campaign.RunContext(context.Background(), benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	ctx := experiments.NewContextWithStudy(st)
	g.Run(ctx) // warm the shared datasets outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Run(ctx)
		if len(res.Lines) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

// One benchmark per paper table and figure (DESIGN.md's experiment
// index).
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }

// --- pipeline micro-benchmarks ---

// benchRunSetup builds a deployment and one looping cluster.
func benchRunSetup(b *testing.B) (op *policy.Operator, dep *deploy.Deployment, cl *deploy.Cluster) {
	b.Helper()
	op = policy.OPT()
	dep = deploy.Build(op, deploy.AreasFor("OPT")[0], 43)
	cl = campaign.FindShowcase(dep)
	if cl == nil {
		cl = dep.Clusters[0]
	}
	return
}

// BenchmarkSimulateRun measures one full 5-minute stationary SA run at
// a looping site.
func BenchmarkSimulateRun(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	benchSimulate(b, op, dep, cl)
}

// BenchmarkSimulateRunNSA is BenchmarkSimulateRun on the NSA engine: an
// OPA handover ping-pong site (N2E1) that loops.
func BenchmarkSimulateRunNSA(b *testing.B) {
	op := policy.OPA()
	dep := deploy.Build(op, deploy.AreasFor("OPA")[0], 43)
	for _, cl := range dep.Clusters {
		if cl.Arch == deploy.ArchN2E1 {
			benchSimulate(b, op, dep, cl)
			return
		}
	}
	b.Fatal("no N2E1 cluster in the OPA deployment")
}

// benchSimulate runs one 5-minute stationary run per iteration, each
// with its own seed.
func benchSimulate(b *testing.B, op *policy.Operator, dep *deploy.Deployment, cl *deploy.Cluster) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
			Duration: 5 * time.Minute, Seed: int64(i)})
	}
}

// BenchmarkEmitParse measures the signaling-log text round trip.
func BenchmarkEmitParse(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	text := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7}).String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sig.Parse(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLog simulates one showcase run for the emit/parse benchmarks.
func benchLog(b *testing.B) *sig.Log {
	b.Helper()
	op, dep, cl := benchRunSetup(b)
	return uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
}

// BenchmarkEmit measures event-at-a-time rendering of a full capture.
func BenchmarkEmit(b *testing.B) {
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamParse is the streaming pipeline shape: events flow
// through an Emitter and a pipe into the parser; the capture text is
// never materialized.
func BenchmarkStreamParse(b *testing.B) {
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			em := sig.NewEmitter(pw)
			for _, ev := range log.Events {
				if em.Emit(ev.At, ev.Msg) != nil {
					break
				}
			}
			pw.CloseWithError(em.Close())
		}()
		if _, err := sig.Parse(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamParseObserved is BenchmarkStreamParse with a live
// metrics registry attached, guarding the observability overhead: the
// collector flushes a handful of counters once per parse, so its B/op
// must stay within a whisker of the unobserved baseline.
func BenchmarkStreamParseObserved(b *testing.B) {
	log := benchLog(b)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			em := sig.NewEmitter(pw)
			for _, ev := range log.Events {
				if em.Emit(ev.At, ev.Msg) != nil {
					break
				}
			}
			pw.CloseWithError(em.Close())
		}()
		if _, err := sig.ParseObserved(pr, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseReuse measures the pooled parser's steady state: one
// materialized capture parsed back-to-back, so every iteration after
// the first reuses the pooled arena, scratch buffers and interning
// tables. This is the path whose allocs/op the zero-allocation rework
// pins — regressions here mean the pool stopped being reused.
func BenchmarkParseReuse(b *testing.B) {
	log := benchLog(b)
	data := []byte(log.String())
	rd := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if _, err := sig.Parse(rd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamCorruptParse: the emit → corrupt → lenient parse leg
// of a faulted campaign run, as campaign's runText runs it: the capture
// renders into a reused buffer, grown before the timer starts like
// runText's pooled one, then the injector corrupts it and the parser
// reads the result, in turn on one goroutine. Every iteration corrupts
// with the same fault seed, so each parses the same damaged capture.
// The loop runs on one P, so the emitter's, injector's and parser's
// pooled state is never rebuilt on another after a GC moves the
// goroutine; B/op and allocs/op are then exactly reproducible.
func BenchmarkStreamCorruptParse(b *testing.B) {
	log := benchLog(b)
	rates := faults.Profile(0.05)
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := log.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sig.ParseLenientObserved(faults.New(7, rates).Reader(&buf), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInject is the inject layer alone: one fixed rendered capture
// corrupted with one fault seed, so every iteration does the same work
// and allocs/op is exactly reproducible.
func BenchmarkInject(b *testing.B) {
	data := []byte(benchLog(b).String())
	rd := bytes.NewReader(data)
	rates := faults.Profile(0.05)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if _, err := io.Copy(io.Discard, faults.New(7, rates).Reader(rd)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPipeline is the pipeline every campaign run feeds: a timeline
// builder teed into a stream detector.
func benchPipeline() (*trace.Builder, *core.StreamDetector) {
	tb := trace.NewBuilder()
	sd := core.NewStreamDetector(core.StreamConfig{})
	tb.TeeSteps(sd.Push)
	return tb, sd
}

// BenchmarkParseToPipeline is the campaign's parse shape: one fixed
// capture parsed by ParseTo straight into the pipeline, so no event log
// is materialized and the parser lends each report's entries to the
// builder.
func BenchmarkParseToPipeline(b *testing.B) {
	data := []byte(benchLog(b).String())
	rd := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		tb, sd := benchPipeline()
		if _, err := sig.ParseTo(rd, true, nil, tb); err != nil {
			b.Fatal(err)
		}
		sd.FinishAnalysis(tb.Finish())
	}
}

// BenchmarkSimulateToPipeline is a clean campaign run: the 5-minute
// runs of BenchmarkSimulateRun, each with its own seed, simulated
// straight into the pipeline.
func BenchmarkSimulateToPipeline(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, sd := benchPipeline()
		cfg := uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
			Duration: 5 * time.Minute, Seed: int64(i)}
		if err := uesim.RunToContext(context.Background(), cfg, tb); err != nil {
			b.Fatal(err)
		}
		sd.FinishAnalysis(tb.Finish())
	}
}

// BenchmarkExtract measures CS-timeline extraction from a parsed log.
func BenchmarkExtract(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	log := uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Extract(log)
	}
}

// BenchmarkStreamDetect measures loop detection: every timeline step
// pushed through a fresh stream detector plus the flush that finalizes
// forms — the work core.Analyze, `-follow` and every campaign run add
// on top of extraction.
func BenchmarkStreamDetect(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	tl := trace.Extract(uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd := core.NewStreamDetector(core.StreamConfig{})
		for _, s := range tl.Steps {
			sd.Push(s)
		}
		sd.Flush(tl.Duration)
	}
}

// benchRecordWire runs one 5-minute run of BenchmarkSimulateRun's
// looping cluster as a study run and returns its record's wire form.
func benchRecordWire(b *testing.B) []byte {
	b.Helper()
	op, dep, cl := benchRunSetup(b)
	opts := campaign.Options{Seed: 7, Duration: 5 * time.Minute}
	job := campaign.StudyJob(op, dep, 0, 0, opts)
	job.Cluster = cl
	recs, err := campaign.Execute(context.Background(), "bench", []campaign.Job{job}, opts)
	if err != nil {
		b.Fatal(err)
	}
	wire, err := campaign.EncodeRecord(recs[0])
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// encodedRecord is a journal payload that appends a record's encoded
// bytes as they are, as the campaign engine's journaled record appends
// its own encoding: it has the AppendJSON method the journal looks for,
// so Append writes the bytes with no encoding/json pass.
type encodedRecord struct{ wire []byte }

func (p *encodedRecord) AppendJSON(b []byte) ([]byte, error) { return append(b, p.wire...), nil }

// BenchmarkJournalAppend measures the checkpoint journal's write side:
// each iteration appends benchRecordWire's record, as the engine
// appends one, to a journal in b.TempDir(). Every 1,000 appends a
// fresh journal starts with the timer stopped, so the file stays
// small; its first append, which grows the journal's line buffer, runs
// off the timer too. The loop runs on one P, so encoding/json's pooled
// encode state, which encodes the key, is never regrown on another
// after a write syscall moves the goroutine. Both keep B/op
// independent of b.N, so it shows any payload-sized copy an append
// makes.
func BenchmarkJournalAppend(b *testing.B) {
	const key = "OPT/A1/0/0/7"
	payload := &encodedRecord{wire: benchRecordWire(b)}
	path := filepath.Join(b.TempDir(), "runs.ckpt")
	var jr *checkpoint.Journal
	restart := func() {
		var err error
		if jr != nil {
			if err := errors.Join(jr.Close(), os.Remove(path)); err != nil {
				b.Fatal(err)
			}
		}
		if jr, _, _, err = checkpoint.Open(path); err == nil {
			err = jr.Append(key, payload)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.SetBytes(int64(len(payload.wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			b.StopTimer()
			restart()
			b.StartTimer()
		}
		if err := jr.Append(key, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := jr.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEncodeRecord measures the record encoder the journal, the
// JSONL sink and the digests share: campaign.EncodeRecord of the record
// benchRecordWire encodes, decoded once off the timer.
func BenchmarkEncodeRecord(b *testing.B) {
	wire := benchRecordWire(b)
	rec, err := campaign.DecodeRecord(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.EncodeRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRecord measures the journal's read side per record:
// campaign.DecodeRecord of the record BenchmarkJournalAppend appends.
func BenchmarkDecodeRecord(b *testing.B) {
	wire := benchRecordWire(b)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.DecodeRecord(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalOpen measures the journal's read side per file:
// checkpoint.OpenEach, which reads, frames and checksums every line
// through its window and lends each entry to a callback that counts
// it, and Close, of a journal holding BenchmarkDecodeRecord's record
// under 300 distinct keys, written off the timer.
func BenchmarkJournalOpen(b *testing.B) {
	const records = 300
	payload := &encodedRecord{wire: benchRecordWire(b)}
	path := filepath.Join(b.TempDir(), "runs.ckpt")
	jr, _, _, err := checkpoint.Open(path)
	for i := 0; err == nil && i < records; i++ {
		err = jr.Append(fmt.Sprintf("OPT/A1/0/%d/7", i), payload)
	}
	if err == nil {
		err = jr.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := 0
		jr, _, err := checkpoint.OpenEach(path, func(checkpoint.Entry) error {
			entries++
			return nil
		})
		if err == nil {
			err = jr.Close()
		}
		if err != nil || entries != records {
			b.Fatalf("%d entries, %v", entries, err)
		}
	}
}

// BenchmarkThroughput measures the speed-series generator, drawing from
// one generator reseeded per iteration, as Fig. 11 draws per record.
func BenchmarkThroughput(b *testing.B) {
	op, dep, cl := benchRunSetup(b)
	tl := trace.Extract(uesim.Run(uesim.Config{Op: op, Field: dep.Field, Cluster: cl,
		Duration: 5 * time.Minute, Seed: 7}))
	rng := rand.New(rand.NewSource(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		throughput.Generate(tl, op, rng)
	}
}

// BenchmarkFitModel measures §6 model training on a synthetic set.
func BenchmarkFitModel(b *testing.B) {
	truth := &core.Model{K: 0.6, T: 10, N: 2, Feature: core.FeatureSCellGap}
	var samples []core.Sample
	for i := 0; i < 49; i++ {
		c := core.Combo{PCellGapDB: units.DB(i%14 - 7), SCellGapDB: units.DB(i % 12)}
		samples = append(samples, core.Sample{Combos: []core.Combo{c}, Truth: truth.Predict([]core.Combo{c})})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Fit(samples, core.FeatureSCellGap)
	}
}

// BenchmarkFullStudy measures the entire sparse measurement campaign at
// benchmark scale (all 11 areas, every run analyzed).
func BenchmarkFullStudy(b *testing.B) {
	if testing.Short() {
		b.Skip("full-study benchmark in -short mode")
	}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(42 + i)
		st, err := campaign.RunContext(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Areas) != 11 {
			b.Fatal("study incomplete")
		}
	}
}

// BenchmarkPublicAPI exercises the facade end to end the way a
// downstream user would.
func BenchmarkPublicAPI(b *testing.B) {
	op := loopscope.OperatorByName("OPT")
	dep := loopscope.BuildDeployment(op, loopscope.Areas()[0], 43)
	for i := 0; i < b.N; i++ {
		capture := loopscope.SimulateRun(loopscope.RunConfig{
			Op: op, Field: dep.Field, Cluster: dep.Clusters[0],
			Duration: time.Minute, Seed: int64(i)})
		parsed, err := loopscope.ParseLog(strings.NewReader(capture.String()), nil)
		if err != nil {
			b.Fatal(err)
		}
		loopscope.Analyze(loopscope.ExtractTimeline(parsed))
	}
}

// Extension experiments (beyond the paper's figures).
func BenchmarkF12Regression(b *testing.B)      { benchExperiment(b, "f12") }
func BenchmarkWalkExperiment(b *testing.B)     { benchExperiment(b, "walk") }
func BenchmarkAppsExperiment(b *testing.B)     { benchExperiment(b, "apps") }
func BenchmarkMitigationStudy(b *testing.B)    { benchExperiment(b, "mitigation") }
func BenchmarkStickinessAblation(b *testing.B) { benchExperiment(b, "ablation-sticky") }
