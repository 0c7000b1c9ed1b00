package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/policy"
)

// errInjectedCrash is returned by the engine when Options.crashAfter
// fires — the kill-and-resume tests' stand-in for a hard kill.
var errInjectedCrash = errors.New("campaign: injected crash after checkpoint append")

// metaKey is the journal key of the options-fingerprint header entry.
const metaKey = "meta/options"

// optsFingerprint pins the output-affecting options into the journal
// header, so a journal can never be resumed under options that would
// produce different records.
type optsFingerprint struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration"`
	RunScale float64       `json:"run_scale"`
	Device   string        `json:"device"`
	Faults   *faults.Rates `json:"faults"`
}

// fingerprint derives the journal header from withDefaults-applied
// options.
func fingerprint(opts Options) optsFingerprint {
	return optsFingerprint{
		Seed:     opts.Seed,
		Duration: opts.Duration,
		RunScale: opts.RunScale,
		Device:   opts.Device.Name,
		Faults:   opts.FaultRates,
	}
}

// runKey is the deterministic identity of one run: operator, area,
// location index, run index and the study's master seed.
func runKey(op, area string, locIdx, runIdx int, seed int64) string {
	return fmt.Sprintf("%s/%s/%d/%d/%d", op, area, locIdx, runIdx, seed)
}

// runner is the per-study engine state shared by the areas: the
// checkpoint journal with its replay map, the sinks, and the crash
// fault point. The study context is not stored here — it is threaded
// through runArea/executeJob as a parameter, so every call site states
// which cancellation scope it runs under.
type runner struct {
	cancel context.CancelCauseFunc // nil when a test drives runArea directly
	opts   Options
	sinks  []Sink
	jr     *checkpoint.Journal
	done   map[string]*Record // journal replay: run key → decoded record

	mu          sync.Mutex
	appended    int   // guarded by: mu — checkpoint record appends (header excluded)
	crashed     bool  // guarded by: mu — crashAfter fired: simulate death, stop persisting
	stopDeliver bool  // guarded by: mu — delivery fence after crash/cancel/sink error
	failErr     error // guarded by: mu — first journal or sink error
}

// fail records the first engine error and cancels the study.
//
// locks: mu
func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

// failLocked is fail for callers already holding r.mu.
//
// requires: mu
func (r *runner) failLocked(err error) {
	if r.failErr == nil {
		r.failErr = err
	}
	r.stopDeliver = true
	if r.cancel != nil {
		r.cancel(err)
	}
}

// err returns the engine's terminal error: a journal/sink failure, the
// injected crash, or the (possibly parent) context cancellation.
//
// locks: mu
func (r *runner) err(ctx context.Context) error {
	r.mu.Lock()
	failErr := r.failErr
	r.mu.Unlock()
	if failErr != nil {
		return failErr
	}
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return nil
}

// openJournal opens and replays the checkpoint journal when one is
// configured. A journal that already holds entries is replayed only
// when resume is set, and only under a matching options fingerprint.
func (r *runner) openJournal(resume bool) (*checkpoint.Salvage, error) {
	if r.opts.Checkpoint == "" {
		return nil, nil
	}
	jr, entries, sal, err := checkpoint.Open(r.opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(r.opts)
	// failClosing folds the journal's close error into the path error:
	// a close failure on a journal we are abandoning is still a report
	// about durability the caller must see.
	failClosing := func(err error) error { return errors.Join(err, jr.Close()) }
	if len(entries) == 0 {
		if err := jr.Append(metaKey, fp); err != nil {
			return nil, failClosing(err)
		}
		r.jr = jr
		return sal, nil
	}
	if !resume {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s already holds %d entries; continue it with Resume (flag -resume), or remove the file",
			r.opts.Checkpoint, len(entries)))
	}
	if entries[0].Key != metaKey {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s has no options header; refusing to resume", r.opts.Checkpoint))
	}
	// Older headers also carry keep_speeds, which changed no field a
	// record still has, and max_retries, which must be the fixed budget.
	var have struct {
		optsFingerprint
		MaxRetries *int `json:"max_retries,omitempty"`
	}
	if err := json.Unmarshal(entries[0].Payload, &have); err != nil {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s: bad options header: %w", r.opts.Checkpoint, err))
	}
	if mustJSON(have.optsFingerprint) != mustJSON(fp) || (have.MaxRetries != nil && *have.MaxRetries != DefaultMaxRetries) {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s was written by a different study (journal %s, resume %s)",
			r.opts.Checkpoint, mustJSON(have), mustJSON(fp)))
	}
	r.done = make(map[string]*Record, len(entries)-1)
	for _, e := range entries[1:] {
		rec, err := DecodeRecord(e.Payload)
		if err != nil {
			return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s: entry %q: %w", r.opts.Checkpoint, e.Key, err))
		}
		r.done[e.Key] = rec // duplicates: last entry wins, like the write order
	}
	if c := r.opts.Metrics; c != nil && !sal.Clean() {
		c.Add("campaign.checkpoint.salvaged_lines", int64(sal.LinesDropped))
	}
	r.jr = jr
	return sal, nil
}

// mustJSON renders v for fingerprint comparison and error messages.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// delivery is a per-area reorder window: records complete in any order
// on the worker pool but sinks must observe slot order.
type delivery struct {
	next    int
	pending map[int]*deliveryItem
}

type deliveryItem struct {
	key string
	rec *Record
}

// complete files one finished run: it is checkpointed immediately (in
// completion order — the keyed replay makes order irrelevant) and
// delivered to the sinks in slot order through the reorder window.
//
// locks: mu
func (r *runner) complete(d *delivery, slot int, key string, rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.FailKind != FailCancelled && r.jr != nil && !r.crashed && r.failErr == nil {
		if _, already := r.done[key]; !already {
			if err := r.appendLocked(key, rec); err != nil {
				r.failLocked(err)
				return
			}
		}
	}
	if r.stopDeliver || len(r.sinks) == 0 {
		return
	}
	if d.pending == nil {
		d.pending = make(map[int]*deliveryItem)
	}
	d.pending[slot] = &deliveryItem{key: key, rec: rec}
	for {
		it, ok := d.pending[d.next]
		if !ok {
			return
		}
		delete(d.pending, d.next)
		if it.rec.FailKind == FailCancelled {
			// A cancelled run has no durable result; everything after
			// it in the stream is withheld so the sink output stays a
			// clean prefix the resumed study will regenerate.
			r.stopDeliver = true
			return
		}
		for _, s := range r.sinks {
			if err := s.Record(it.rec); err != nil {
				r.failLocked(fmt.Errorf("campaign: sink: %w", err))
				return
			}
		}
		d.next++
	}
}

// appendLocked persists one record and drives the crashAfter fault
// point. Callers hold r.mu. The journal encodes the record's wire
// value itself, so the entry's payload is EncodeRecord's bytes,
// encoded once.
//
// requires: mu
func (r *runner) appendLocked(key string, rec *Record) error {
	w, err := toWire(rec)
	if err != nil {
		return err
	}
	if err := r.jr.Append(key, w); err != nil {
		return err
	}
	if c := r.opts.Metrics; c != nil {
		c.Add("campaign.runs.checkpointed", 1)
	}
	r.appended++
	if r.opts.crashAfter > 0 && r.appended >= r.opts.crashAfter && !r.crashed {
		r.crashed = true
		r.stopDeliver = true
		if r.cancel != nil {
			r.cancel(errInjectedCrash)
		}
		r.failErr = errInjectedCrash
	}
	return nil
}

// beginArea announces the area to every sink.
//
// locks: mu
func (r *runner) beginArea(spec deploy.AreaSpec, dep *deploy.Deployment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopDeliver {
		return
	}
	for _, s := range r.sinks {
		if err := s.BeginArea(spec, dep); err != nil {
			r.failLocked(fmt.Errorf("campaign: sink: %w", err))
			return
		}
	}
}

// runArea executes all runs of one area. Runs are independent (each
// derives its own seed), so they execute on a bounded worker pool; the
// record order — and therefore every downstream aggregate — is
// identical to the sequential execution.
func (r *runner) runArea(ctx context.Context, op *policy.Operator, spec deploy.AreaSpec) *AreaResult {
	opts := r.opts
	dep := deploy.Build(op, spec, opts.Seed+1)
	res := &AreaResult{Spec: spec, Dep: dep}
	r.beginArea(spec, dep)
	runs := int(float64(spec.Runs)*opts.RunScale + 0.5)
	if runs < 1 {
		runs = 1
	}
	res.Records = make([]*Record, len(dep.Clusters)*runs)
	d := &delivery{}
	n := pool(ctx, len(res.Records), opts.Workers, func(slot int) {
		li, ri := slot/runs, slot%runs
		key := runKey(op.Name, spec.ID, li, ri, opts.Seed)
		rec := r.executeJob(ctx, op, dep, li, ri, key)
		res.Records[slot] = rec
		r.complete(d, slot, key, rec)
	})
	// Undispatched runs form a suffix of nil slots; trim them so a
	// cancelled study still satisfies the non-nil record invariant.
	res.Records = res.Records[:n]
	return res
}

// pool calls do(i) for i = 0, 1, … n-1 on a bounded set of workers (0
// means one per CPU) and returns once every call has. Indices are
// handed out in order until ctx is done, so the calls made cover a
// prefix of the indices; pool returns its length.
func pool(ctx context.Context, n, workers int, do func(i int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				do(i)
			}
		}()
	}
	sent := 0
dispatch:
	for ; sent < n; sent++ {
		select {
		case ch <- sent:
		case <-ctx.Done():
			break dispatch // graceful drain: stop handing out work
		}
	}
	close(ch)
	wg.Wait()
	return sent
}

// executeJob resolves one study run: from the replay map when the
// journal already holds it, by execution otherwise. The study's run
// counters count the runs it executes.
func (r *runner) executeJob(ctx context.Context, op *policy.Operator, dep *deploy.Deployment,
	locIdx, runIdx int, key string) *Record {
	c := r.opts.Metrics
	if rec, ok := r.done[key]; ok {
		if c != nil {
			c.Add("campaign.runs.resumed", 1)
			c.Add("campaign.runs.resumed"+metricLabel(op.Name, dep.Area.ID), 1)
		}
		return rec
	}
	rec := execute(ctx, StudyJob(op, dep, locIdx, runIdx, r.opts), c)
	if c != nil {
		label := metricLabel(op.Name, dep.Area.ID)
		c.Add("campaign.runs", 1)
		c.Add("campaign.runs"+label, 1)
		if n := int64(rec.Attempts - 1); n > 0 {
			c.Add("campaign.retries", n)
			c.Add("campaign.retries"+label, n)
		}
		if rec.Failed() {
			c.Add("campaign.failures", 1)
			c.Add("campaign.failures"+label, 1)
			c.Add("campaign.failures."+rec.FailKind.String(), 1)
			c.Add("campaign.failures."+rec.FailKind.String()+label, 1)
		}
		if rec.Salvage != nil && !rec.Salvage.Clean() {
			c.Add("campaign.salvaged_runs", 1)
			c.Add("campaign.salvaged_runs"+label, 1)
		}
	}
	return rec
}

// runStudy drives the whole study through a runner: journal replay
// (only when resume is set), area execution, sink delivery.
func runStudy(ctx context.Context, opts Options, specs []deploy.AreaSpec,
	resume bool) (st *Study, sal *checkpoint.Salvage, rerr error) {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	r := &runner{opts: opts}
	if opts.Sink != nil {
		r.sinks = append(r.sinks, opts.Sink)
	}
	sal, err := r.openJournal(resume)
	if err != nil {
		return nil, nil, err
	}
	if r.jr != nil {
		// A failed close after the final Sync means the journal's
		// durability is in doubt; resume correctness depends on it, so
		// the study must not look clean.
		defer func() {
			if cerr := r.jr.Close(); cerr != nil && rerr == nil {
				rerr = cerr
			}
		}()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r.cancel = cancel
	st = &Study{Opts: opts}
	for _, spec := range specs {
		if r.err(cctx) != nil {
			break
		}
		op := policy.ByName(spec.Operator)
		st.Areas = append(st.Areas, r.runArea(cctx, op, spec))
	}
	if r.jr != nil {
		if err := r.jr.Sync(); err != nil && r.err(cctx) == nil {
			r.fail(err)
		}
	}
	return st, sal, r.err(cctx)
}

// RunContext executes the full study under ctx, honouring the
// checkpoint and sink options. On cancellation it drains gracefully —
// in-flight runs abort between events, finished work stays
// checkpointed — and returns the partial study together with the
// cancellation cause.
func RunContext(ctx context.Context, opts Options) (*Study, error) {
	st, _, err := runStudy(ctx, opts, deploy.Areas(), false)
	return st, err
}

// Resume re-runs the study on top of the checkpoint journal at path:
// runs already journaled are replayed instead of executed, the journal
// is salvaged first if damaged (the returned report says what was
// discarded), and the resulting study — records, aggregates, rendered
// experiments — is byte-identical to an uninterrupted run with the
// same options at any worker count.
func Resume(ctx context.Context, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	opts.Checkpoint = path
	return runStudy(ctx, opts, deploy.Areas(), true)
}
