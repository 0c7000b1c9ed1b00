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

// runner is the engine state of one study: the checkpoint journal with
// its replay map, the study's records and the crash fault point. The
// study context is not stored here — it is threaded through
// executeJob as a parameter, so every call site states which
// cancellation scope it runs under.
type runner struct {
	cancel context.CancelCauseFunc
	opts   Options
	jr     *checkpoint.Journal
	done   map[string]*Record // journal replay: run key → decoded record

	mu          sync.Mutex
	recs        []*Record // guarded by: mu — the study's records by run index
	delivered   int       // guarded by: mu — length of the prefix of recs Options.Sink has taken
	appended    int       // guarded by: mu — checkpoint record appends (header excluded)
	crashed     bool      // guarded by: mu — crashAfter fired: simulate death, stop persisting
	stopDeliver bool      // guarded by: mu — delivery fence after crash/cancel/sink error
	failErr     error     // guarded by: mu — first journal or sink error
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
	r.cancel(err)
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
// The journal is read one line at a time: the header is checked and
// every record decoded as its line is read, so a resume holds one line
// and the records decoded so far, never the whole file.
func (r *runner) openJournal(resume bool) (*checkpoint.Salvage, error) {
	if r.opts.Checkpoint == "" {
		return nil, nil
	}
	fp := fingerprint(r.opts)
	entries := 0
	jr, sal, err := checkpoint.OpenEach(r.opts.Checkpoint, func(e checkpoint.Entry) error {
		entries++
		var err error
		switch {
		case !resume: // only counted: the journal is refused below
		case entries == 1:
			err = r.checkHeader(e, fp)
		default:
			err = r.replay(e)
		}
		if testHookLent != nil {
			testHookLent(e)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// failClosing folds the journal's close error into the path error:
	// a close failure on a journal we are abandoning is still a report
	// about durability the caller must see.
	failClosing := func(err error) error { return errors.Join(err, jr.Close()) }
	if entries == 0 {
		if err := jr.Append(metaKey, fp); err != nil {
			return nil, failClosing(err)
		}
		r.jr = jr
		return sal, nil
	}
	if !resume {
		return nil, failClosing(fmt.Errorf("campaign: checkpoint journal %s already holds %d entries; continue it with Resume (flag -resume), or remove the file",
			r.opts.Checkpoint, entries))
	}
	if c := r.opts.Metrics; c != nil && !sal.Clean() {
		c.Add("campaign.checkpoint.salvaged_lines", int64(sal.LinesDropped))
	}
	r.jr = jr
	return sal, nil
}

// testHookLent, when set by a test, sees every journal entry once
// openJournal has replayed it, while the entry is still lent; the
// borrow test overwrites its payload there.
var testHookLent func(checkpoint.Entry)

// replay decodes a record entry of the journal into r.done while the
// entry is lent (see checkpoint.OpenEach). Keys may repeat: the last
// entry for a key wins, like the write order.
func (r *runner) replay(e checkpoint.Entry) error {
	rec, err := DecodeRecord(e.Payload)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint journal %s: entry %q: %w", r.opts.Checkpoint, e.Key, err)
	}
	if r.done == nil {
		r.done = make(map[string]*Record)
	}
	r.done[e.Key] = rec
	return nil
}

// checkHeader checks the journal's first entry against fp, the header
// this study would write.
func (r *runner) checkHeader(e checkpoint.Entry, fp optsFingerprint) error {
	if e.Key != metaKey {
		return fmt.Errorf("campaign: checkpoint journal %s has no options header; refusing to resume", r.opts.Checkpoint)
	}
	// Older headers also carry keep_speeds, which changed no field a
	// record still has, and max_retries, which must be the fixed budget.
	var have struct {
		optsFingerprint
		MaxRetries *int `json:"max_retries,omitempty"`
	}
	if err := json.Unmarshal(e.Payload, &have); err != nil {
		return fmt.Errorf("campaign: checkpoint journal %s: bad options header: %w", r.opts.Checkpoint, err)
	}
	if mustJSON(have.optsFingerprint) != mustJSON(fp) || (have.MaxRetries != nil && *have.MaxRetries != DefaultMaxRetries) {
		return fmt.Errorf("campaign: checkpoint journal %s was written by a different study (journal %s, resume %s)",
			r.opts.Checkpoint, mustJSON(have), mustJSON(fp))
	}
	return nil
}

// mustJSON renders v for fingerprint comparison and error messages.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// complete files run i's record: it is checkpointed immediately (in
// completion order — the keyed replay makes order irrelevant), stored
// at index i, and delivered to Options.Sink in index order. recs is the
// reorder window: the sink takes every record from the first one it
// has not taken up to the next run still in flight.
//
// locks: mu
func (r *runner) complete(i int, key string, rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs[i] = rec
	if rec.FailKind != FailCancelled && r.jr != nil && !r.crashed && r.failErr == nil {
		if _, already := r.done[key]; !already {
			if err := r.appendLocked(key, rec); err != nil {
				r.failLocked(err)
				return
			}
		}
	}
	for r.opts.Sink != nil && !r.stopDeliver && r.delivered < len(r.recs) && r.recs[r.delivered] != nil {
		next := r.recs[r.delivered]
		if next.FailKind == FailCancelled {
			// A cancelled run has no durable result; everything after
			// it in the stream is withheld so the sink output stays a
			// clean prefix the resumed study will regenerate.
			r.stopDeliver = true
			return
		}
		if err := r.opts.Sink.Record(next); err != nil {
			r.failLocked(fmt.Errorf("campaign: sink: %w", err))
			return
		}
		r.delivered++
	}
}

// appendLocked persists one record and drives the crashAfter fault
// point. Callers hold r.mu. The record appends its own canonical form
// into the journal's line (see journaled), so the entry's payload is
// EncodeRecord's bytes, encoded once.
//
// requires: mu
func (r *runner) appendLocked(key string, rec *Record) error {
	if err := r.jr.Append(key, (*journaled)(rec)); err != nil {
		return err
	}
	if c := r.opts.Metrics; c != nil {
		c.Add("campaign.runs.checkpointed", 1)
	}
	r.appended++
	if r.opts.crashAfter > 0 && r.appended >= r.opts.crashAfter && !r.crashed {
		r.crashed = true
		r.stopDeliver = true
		r.cancel(errInjectedCrash)
		r.failErr = errInjectedCrash
	}
	return nil
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
// journal already holds key, by executing job otherwise. The study's
// run counters count the runs it executes.
func (r *runner) executeJob(ctx context.Context, job Job, key string) *Record {
	c := r.opts.Metrics
	if rec, ok := r.done[key]; ok {
		if c != nil {
			c.Add("campaign.runs.resumed", 1)
			c.Add("campaign.runs.resumed"+metricLabel(job.Op.Name, job.Area), 1)
		}
		return rec
	}
	rec := execute(ctx, job, c)
	if c != nil {
		label := metricLabel(job.Op.Name, job.Area)
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

// runStudy drives the whole study through a runner: it builds every
// area's deployment, replays the journal (only when resume is set) and
// runs the study's runs on one worker pool. The runs are numbered area
// by area, location-major, and run i's record lands at index i, so
// records and sink delivery keep that order at any worker count.
func runStudy(ctx context.Context, opts Options, specs []deploy.AreaSpec,
	resume bool) (st *Study, sal *checkpoint.Salvage, rerr error) {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	// Area k's runs are the indices i with first[k] ≤ i < first[k+1].
	st = &Study{Opts: opts, Areas: make([]*AreaResult, len(specs))}
	first := make([]int, len(specs)+1)
	for k, spec := range specs {
		dep := deploy.Build(policy.ByName(spec.Operator), spec, opts.Seed+1)
		st.Areas[k] = &AreaResult{Spec: spec, Dep: dep}
		runs := max(int(float64(spec.Runs)*opts.RunScale+0.5), 1)
		first[k+1] = first[k] + len(dep.Clusters)*runs
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	recs := make([]*Record, first[len(specs)])
	r := &runner{cancel: cancel, opts: opts, recs: recs}
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
	n := pool(cctx, len(recs), opts.Workers, func(i int) {
		k := 0
		for first[k+1] <= i {
			k++
		}
		dep := st.Areas[k].Dep
		runs := (first[k+1] - first[k]) / len(dep.Clusters)
		li, ri := (i-first[k])/runs, (i-first[k])%runs
		key := runKey(dep.Op.Name, dep.Area.ID, li, ri, opts.Seed)
		r.complete(i, key, r.executeJob(cctx, StudyJob(dep.Op, dep, li, ri, opts), key))
	})
	// Undispatched runs form a suffix of nil slots. Each area keeps its
	// dispatched span, capped so an append to it cannot reach the next
	// area's records, and one with none is left out, so a cancelled
	// study still satisfies the non-nil record invariant. pool has
	// returned, so recs is read without r.mu.
	for k, a := range st.Areas {
		if first[k] >= n {
			st.Areas = st.Areas[:k]
			break
		}
		end := min(first[k+1], n)
		a.Records = recs[first[k]:end:end]
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
