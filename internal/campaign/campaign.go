// Package campaign orchestrates the measurement study: it executes
// stationary runs across the 11 test areas exactly the way §4.1
// describes — multiple locations per area, repeated 5-minute bulk
// download runs per location — and keeps per-run records (CS timeline,
// loop analysis, measurement counts) that the experiment generators
// aggregate into the paper's tables and figures.
package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// MinRunScale is the smallest accepted run scale. Invalid values
// (negative or NaN) are coerced to it rather than silently misbehaving;
// at this scale every location executes exactly one run.
const MinRunScale = 1.0 / (1 << 20)

// DefaultMaxRetries bounds how often a failed (panicked) run is
// re-attempted with a perturbed seed before its failure record sticks.
const DefaultMaxRetries = 1

// DefaultDuration is the stationary run length of §4.1.
const DefaultDuration = 5 * time.Minute

// Options scales the study. The zero value gives the full default
// study; tests use reduced RunScale and Duration.
type Options struct {
	// Seed is the study's master seed; everything derives from it.
	Seed int64
	// Duration of each stationary run (default 5 minutes, §4.1).
	Duration time.Duration
	// RunScale multiplies the per-area run counts (default 1.0;
	// negative or NaN values are coerced to MinRunScale).
	RunScale float64
	// Device is the test phone (default OnePlus 12R).
	Device *device.Profile
	// FaultRates, when non-nil, routes every run's capture through a
	// seeded faults.Injector and the salvage pipeline: the run renders
	// its capture text, corrupts it, parses it back with sig.ParseTo in
	// lenient mode and is analyzed from whatever survived, mirroring
	// how real damaged captures are ingested. Each record carries its
	// Salvage report.
	FaultRates *faults.Rates
	// Workers bounds the study's worker pool, which runs every area's
	// runs, and Execute's; 0 means one worker per CPU. Record order and
	// content are identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, is the path of the durable run
	// journal (see internal/checkpoint and docs/RESILIENCE.md): every
	// completed run appends one checksummed entry keyed by its
	// deterministic identity, and Resume replays the journal to skip
	// finished runs. RunContext refuses a journal that already holds
	// entries, so two studies cannot silently interleave into one file.
	Checkpoint string
	// Sink, when non-nil, additionally receives every completed record
	// in deterministic order as the study executes (see Sink).
	Sink Sink
	// Metrics, when non-nil, receives stage spans and run counters
	// (runs, retries, panics, salvaged runs — in total and per
	// operator/area). Pure observation: records, goldens and experiment
	// output are byte-identical with or without a collector; the
	// parity test enforces this.
	Metrics obs.Collector

	// crashAfter, when positive, kills the engine deterministically
	// right after the N-th checkpoint append: the journal keeps
	// exactly N entries, in-flight runs are cancelled, and the study
	// returns errInjectedCrash. It is the fault point of the package's
	// kill-and-resume tests; only they set it.
	crashAfter int
}

// withDefaults fills in the zero values.
func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = DefaultDuration
	}
	if o.RunScale < 0 || math.IsNaN(o.RunScale) {
		o.RunScale = MinRunScale
	}
	//lint:ignore loopvet/floatcmp zero is the Options not-set sentinel, assigned verbatim and never computed
	if o.RunScale == 0 {
		o.RunScale = 1
	}
	if o.Device == nil {
		o.Device = device.OnePlus12R()
	}
	return o
}

// Record is one stationary run's outcome.
type Record struct {
	Op       string
	Area     string
	City     string
	LocIndex int
	RunIndex int
	Device   string
	Arch     deploy.Archetype

	Timeline  *trace.Timeline
	Analysis  core.Analysis
	MeasCount int // individual RSRP/RSRQ values reported (Table 3)

	// Salvage reports what lenient parsing recovered when the run's
	// capture went through fault injection (nil otherwise).
	Salvage *sig.Salvage
	// Err and Stack describe a run that failed instead of completing;
	// such a failure record keeps the study alive and countable. Stack
	// is only set for panics.
	Err   string
	Stack string
	// FailKind classifies the failure carried by Err (panic or
	// cancellation); FailNone for successful runs.
	FailKind FailureKind
	// Attempts is how many executions this record took (1 for a clean
	// first run; retries increment it).
	Attempts int
}

// FailureKind is the closed taxonomy of run failures. Only panics are
// retried; a cancelled run belongs to a study that is shutting down.
// Journals and sinks only ever hold FailNone and FailPanic records.
type FailureKind uint8

const (
	// FailNone marks a successful run.
	FailNone FailureKind = iota
	// FailPanic marks a run that panicked; Stack holds the trace.
	FailPanic
	_ // 2 marked the retired per-run deadline; journals keep the numbering
	// FailCancelled marks a run aborted by study cancellation; such
	// records are never checkpointed or delivered to sinks, so a
	// resumed study re-executes them.
	FailCancelled
)

// String names the failure kind for counters and reports.
func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailPanic:
		return "panic"
	case FailCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("FailureKind(%d)", uint8(k))
	}
}

// HasLoop reports whether the run contained an ON-OFF loop.
func (r *Record) HasLoop() bool { return r.Analysis.HasLoop() }

// Failed reports whether the run panicked and carries no analysis.
func (r *Record) Failed() bool { return r.Err != "" }

// Form returns the run's sequence form (Fig. 4). A run is persistent
// when it *ends* inside a loop, so the last detected loop's form
// decides: a run that briefly left a loop and re-entered it still ends
// in the loop.
func (r *Record) Form() core.Form {
	if !r.HasLoop() {
		return core.FormNoLoop
	}
	return r.Analysis.Loops[len(r.Analysis.Loops)-1].Form
}

// Subtype returns the primary loop's sub-type (SubtypeUnknown if none).
func (r *Record) Subtype() core.Subtype {
	_, st := r.Analysis.Primary()
	return st
}

// AreaResult bundles one area's deployment and run records.
type AreaResult struct {
	Spec    deploy.AreaSpec
	Dep     *deploy.Deployment
	Records []*Record
}

// LocationRecords groups the area's records by location index.
func (a *AreaResult) LocationRecords() [][]*Record {
	out := make([][]*Record, len(a.Dep.Clusters))
	for _, r := range a.Records {
		out[r.LocIndex] = append(out[r.LocIndex], r)
	}
	return out
}

// LoopLikelihood returns the per-location loop likelihood (Fig. 8).
// Failed runs are excluded from the denominator: a crashed capture is
// missing data, not a no-loop observation.
func (a *AreaResult) LoopLikelihood() []float64 {
	locs := a.LocationRecords()
	out := make([]float64, len(locs))
	for i, recs := range locs {
		n, ok := 0, 0
		for _, r := range recs {
			if r.Failed() {
				continue
			}
			ok++
			if r.HasLoop() {
				n++
			}
		}
		if ok > 0 {
			out[i] = float64(n) / float64(ok)
		}
	}
	return out
}

// Failures counts the area's runs that ended in a failure record.
func (a *AreaResult) Failures() int {
	n := 0
	for _, r := range a.Records {
		if r.Failed() {
			n++
		}
	}
	return n
}

// Study is the full multi-operator dataset.
type Study struct {
	Opts  Options
	Areas []*AreaResult
}

// Job is one declared simulation. The study declares one per run
// (StudyJob), and the experiment generators declare their side runs the
// same way; runOnce turns either into a Record, the only code path from
// a simulation to a record.
type Job struct {
	// Config is what uesim simulates. Its Metrics field is ignored: the
	// engine sets the collector, and side runs report to none. A nil
	// Device runs uesim's default phone.
	uesim.Config
	// FaultRates, when non-nil, routes the run's capture through a
	// faults.Injector seeded with FaultSeed and the salvage pipeline,
	// like Options.FaultRates does for a study run.
	FaultRates *faults.Rates
	FaultSeed  int64
	// Area, City, LocIndex and RunIndex label the record.
	Area, City         string
	LocIndex, RunIndex int
}

// StudyJob declares the study's run runIdx at location locIdx of dep:
// the study's run-seed formula, opts' device and duration and, when
// opts.FaultRates is set, an injector seeded at the run seed + 2.
func StudyJob(op *policy.Operator, dep *deploy.Deployment, locIdx, runIdx int, opts Options) Job {
	opts = opts.withDefaults()
	seed := opts.Seed*1_000_003 + int64(locIdx)*7919 + int64(runIdx)*104729 + int64(deployHash(dep.Area.ID))
	j := Job{
		Config: uesim.Config{Op: op, Field: dep.Field, Cluster: dep.Clusters[locIdx],
			Device: opts.Device, Duration: opts.Duration, Seed: seed},
		Area: dep.Area.ID, City: dep.Area.City, LocIndex: locIdx, RunIndex: runIdx,
	}
	if opts.FaultRates != nil {
		j.FaultRates, j.FaultSeed = opts.FaultRates, seed+2
	}
	return j
}

// Execute runs an experiment's side jobs on the study's engine: each
// goes through runOnce under the study's retry policy and panic
// isolation, on the opts.Workers pool. It returns the records in job
// order, the same at any worker count. Side runs report to no
// collector and are neither journaled nor delivered to sinks;
// opts.Metrics only counts them, as campaign.side_runs in total and
// under {exp=label}. The error names the first run that still failed
// after its retries, with its stack, or the cancellation that stopped
// dispatch before every job ran; the records are then those of the
// jobs that ran.
func Execute(ctx context.Context, label string, jobs []Job, opts Options) ([]*Record, error) {
	recs := make([]*Record, len(jobs))
	n := pool(ctx, len(jobs), opts.Workers, func(i int) { recs[i] = execute(ctx, jobs[i], nil) })
	recs = recs[:n]
	if c := opts.Metrics; c != nil {
		c.Add("campaign.side_runs", int64(n))
		c.Add("campaign.side_runs{exp="+label+"}", int64(n))
	}
	for i, rec := range recs {
		if rec.Failed() {
			return recs, fmt.Errorf("campaign: %s job %d failed after %d attempts: %s\n%s",
				label, i, rec.Attempts, rec.Err, rec.Stack)
		}
	}
	if n < len(jobs) {
		return recs, context.Cause(ctx)
	}
	return recs, nil
}

// execute resolves one job. A run that panics does not tear down its
// caller: the panic is captured into a failure Record (with error and
// stack), and the run is retried up to DefaultMaxRetries times with
// perturbed seeds before the failure sticks. Cancellation is final and
// never retried; a context cancelled before a retry also yields a
// cancelled record (not the interim panic), because an uninterrupted
// study would have retried and the panic must not be checkpointed as
// final.
func execute(ctx context.Context, job Job, c obs.Collector) *Record {
	rec := runOnce(ctx, job, 0, c)
	for attempt := 1; rec.FailKind == FailPanic && attempt <= DefaultMaxRetries; attempt++ {
		if err := context.Cause(ctx); err != nil {
			// The interim panic record must not stand: it would be
			// checkpointed as a final failure, while an uninterrupted
			// study would have retried (possibly succeeding) — resume(k)
			// would diverge from the baseline. Demote it to a cancelled
			// record, which the engine neither checkpoints nor delivers,
			// so the resumed study re-runs it with the full retry budget.
			rec.Err, rec.Stack, rec.FailKind = err.Error(), "", FailCancelled
			break
		}
		retry := runOnce(ctx, job, attempt, c)
		retry.Attempts = attempt + 1
		rec = retry
	}
	return rec
}

// metricLabel renders the per-operator/area counter suffix, e.g.
// "{op=OPT,area=A1}".
func metricLabel(op, area string) string {
	return "{op=" + op + ",area=" + area + "}"
}

// startStage opens a stage span on c, tolerating a disabled collector.
func startStage(c obs.Collector, s obs.Stage) func() {
	if c == nil {
		return func() {}
	}
	return c.StartStage(s)
}

// testHookPanic, when set by a test, forces a run attempt to panic —
// the only way to exercise the recovery path deterministically.
var testHookPanic func(area string, locIdx, runIdx, attempt int) bool

// runOnce executes one attempt of a job under panic isolation and
// ctx, reporting to c (nil for none). A context abort surfaces as a
// FailCancelled record, not a panic.
func runOnce(ctx context.Context, job Job, attempt int, c obs.Collector) (rec *Record) {
	cfg := job.Config
	rec = &Record{
		Op:       cfg.Op.Name,
		Area:     job.Area,
		City:     job.City,
		LocIndex: job.LocIndex,
		RunIndex: job.RunIndex,
		Arch:     cfg.Cluster.Arch,
		Attempts: 1,
	}
	if cfg.Device != nil {
		rec.Device = cfg.Device.Name
	}
	defer func() {
		if p := recover(); p != nil {
			rec.Err = fmt.Sprint(p)
			rec.Stack = string(debug.Stack())
			rec.FailKind = FailPanic
			rec.Timeline = nil
			rec.Analysis = core.Analysis{}
			rec.MeasCount = 0
			rec.Salvage = nil
			if c != nil {
				c.Add("campaign.panics", 1)
				c.Add("campaign.panics"+metricLabel(cfg.Op.Name, job.Area), 1)
			}
		}
	}()
	if testHookPanic != nil && testHookPanic(job.Area, job.LocIndex, job.RunIndex, attempt) {
		panic("injected test failure")
	}
	// Retries perturb both seeds alike, so a deterministic crash input
	// is not replayed verbatim and a study's faulted run keeps its
	// injector seed at its run seed + 2.
	perturb := int64(attempt) * 1_000_000_007
	cfg.Seed += perturb
	cfg.Metrics = c
	// Every run has one shape: a producer, on this goroutine, feeds
	// runSink, which folds the events into a timeline builder teed into
	// the loop detector, so extraction and detection run inside the
	// producer's span (see docs/OBSERVABILITY.md). The unbounded horizon
	// finds every loop.
	tb := trace.NewBuilder()
	sd := core.NewStreamDetector(core.StreamConfig{Metrics: c})
	tb.TeeSteps(sd.Push)
	sink := &runSink{tb: tb}
	var abort error
	if job.FaultRates == nil {
		endSim := startStage(c, obs.StageSimulate)
		abort = uesim.RunToContext(ctx, cfg, sink)
		endSim()
	} else {
		inj := faults.New(job.FaultSeed+perturb, *job.FaultRates).WithCollector(c)
		rec.Salvage, abort = runText(ctx, cfg, inj, sink, c)
	}
	if abort != nil {
		rec.Err = abort.Error()
		rec.FailKind = FailCancelled
		return rec
	}
	rec.Timeline = tb.Finish()
	rec.Analysis = sd.FinishAnalysis(rec.Timeline)
	rec.MeasCount = sink.meas
	return rec
}

// runSink is where every run's events land, whichever producer runs: it
// counts measurement entries for Record.MeasCount and folds each event
// into the timeline builder.
type runSink struct {
	tb   *trace.Builder
	meas int
}

// Append implements sig.Sink.
func (s *runSink) Append(at time.Duration, m rrc.Message) {
	if mr, ok := m.(rrc.MeasReport); ok {
		s.meas += len(mr.Entries)
	}
	s.tb.Append(at, m)
}

// runText is the producer of a faulted run. The simulator renders the
// capture into a pooled buffer; the injector then corrupts it and
// lenient parsing delivers the kept events to sink, all on the calling
// goroutine. Running the legs in turn gives up no overlap: the
// injector reads the whole capture before it serves a byte. A simulator
// panic unwinds straight to runOnce's recover, and a context abort is
// returned before anything is parsed.
func runText(ctx context.Context, cfg uesim.Config, inj *faults.Injector, sink sig.Sink,
	c obs.Collector) (*sig.Salvage, error) {
	buf := textPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledText {
			buf.Reset()
			textPool.Put(buf)
		}
	}()
	endSim := startStage(c, obs.StageSimulate)
	em := sig.NewEmitter(buf)
	abort := uesim.RunToContext(ctx, cfg, em)
	werr := em.Close()
	endSim()
	if abort != nil {
		return nil, abort
	}
	endParse := startStage(c, obs.StageParse)
	sal, err := sig.ParseTo(inj.Reader(buf), true, c, sink)
	endParse()
	if err := errors.Join(werr, err); err != nil {
		panic(err) // a bytes.Buffer fails neither writes nor reads; recovered in runOnce
	}
	return normalizeSalvage(sal), nil
}

// textPool recycles the capture buffers of faulted runs. A 5-minute
// capture renders to about 185 KB; a fresh buffer would grow to it by
// doubling on every run.
var textPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledText caps the buffers textPool and encodeScratch keep, so
// one huge capture or record does not pin its memory afterwards (the
// bound internal/faults uses).
const maxPooledText = 4 << 20

// normalizeSalvage flattens each quarantine cause to a plain
// errors.New of its message. The parser surfaces concrete error types
// (strconv.NumError and friends) that the record codec cannot
// reconstruct; records must be wire-stable from birth so a resumed
// study is deep-equal to an uninterrupted one. The rendered text is
// unchanged — only the dynamic type is.
func normalizeSalvage(sal *sig.Salvage) *sig.Salvage {
	if sal == nil {
		return nil
	}
	for _, pe := range sal.Errors {
		pe.Err = errors.New(pe.Err.Error())
	}
	return sal
}

// deployHash distinguishes run seeds across areas.
func deployHash(id string) int {
	h := 0
	for _, c := range id {
		h = h*31 + int(c)
	}
	return h
}

// Records returns all records, optionally filtered by operator name
// ("" for all).
func (s *Study) Records(op string) []*Record {
	var out []*Record
	for _, a := range s.Areas {
		if op != "" && a.Spec.Operator != op {
			continue
		}
		out = append(out, a.Records...)
	}
	return out
}

// AreaByID returns one area's results.
func (s *Study) AreaByID(id string) *AreaResult {
	for _, a := range s.Areas {
		if a.Spec.ID == id {
			return a
		}
	}
	return nil
}

// Failures counts runs across the study that ended in failure records.
func (s *Study) Failures() int {
	n := 0
	for _, a := range s.Areas {
		n += a.Failures()
	}
	return n
}

// FormCounts tallies sequence forms for an operator (Fig. 6). Failed
// runs carry no sequence and are not counted.
func (s *Study) FormCounts(op string) map[core.Form]int {
	out := map[core.Form]int{}
	for _, r := range s.Records(op) {
		if r.Failed() {
			continue
		}
		out[r.Form()]++
	}
	return out
}

// SubtypeCounts tallies loop sub-types for an operator or area. Failed
// runs never report loops, so they naturally drop out.
func SubtypeCounts(records []*Record) map[core.Subtype]int {
	out := map[core.Subtype]int{}
	for _, r := range records {
		if !r.Failed() && r.HasLoop() {
			out[r.Subtype()]++
		}
	}
	return out
}

// LoopInstances returns every detected loop across records.
func LoopInstances(records []*Record) []*core.Loop {
	var out []*core.Loop
	for _, r := range records {
		out = append(out, r.Analysis.Loops...)
	}
	return out
}
