package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
)

// tinyOpts is a fast single-operator study configuration.
func tinyOpts() Options {
	return Options{Seed: 42, Duration: 120 * time.Second, RunScale: MinRunScale}
}

// runArea runs one area as a study of its own under a background
// context, with no journal and no sink.
func runArea(t *testing.T, spec deploy.AreaSpec, opts Options) *AreaResult {
	t.Helper()
	st, _, err := runStudy(context.Background(), opts, []deploy.AreaSpec{spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	return st.Areas[0]
}

// runOperator is RunContext over a single operator's areas.
func runOperator(ctx context.Context, op *policy.Operator, opts Options) (*Study, error) {
	st, _, err := runStudy(ctx, opts, deploy.AreasFor(op.Name), false)
	return st, err
}

// resumeOperator is Resume over a single operator's areas.
func resumeOperator(ctx context.Context, op *policy.Operator, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	opts.Checkpoint = path
	return runStudy(ctx, opts, deploy.AreasFor(op.Name), true)
}

// runOPT is runOperator over OPT's areas under a background context,
// failing the test on an engine error.
func runOPT(t *testing.T, opts Options) *Study {
	t.Helper()
	st, err := runOperator(context.Background(), policy.OPT(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// collectSink keeps the delivered record stream.
type collectSink struct{ recs []*Record }

func (s *collectSink) Record(rec *Record) error {
	s.recs = append(s.recs, rec)
	return nil
}

// TestStudySinkEquivalence: the record stream is exactly the study's
// records in study order, at several worker counts.
func TestStudySinkEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := tinyOpts()
		opts.Workers = workers
		want := runOPT(t, opts)
		cs := &collectSink{}
		opts.Sink = cs
		got := runOPT(t, opts)
		if !reflect.DeepEqual(want.Records(""), cs.recs) {
			t.Fatalf("workers=%d: streamed study diverged from materialized study", workers)
		}
		if !reflect.DeepEqual(got.Records(""), cs.recs) {
			t.Fatalf("workers=%d: sink saw different records than the returned study", workers)
		}
	}
}

// TestJSONLSinkDeterministicOrder: the JSONL byte stream is identical
// at any worker count.
func TestJSONLSinkDeterministicOrder(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		opts := tinyOpts()
		opts.Workers = workers
		opts.Sink = NewJSONLSink(&buf)
		if _, err := runOperator(context.Background(), policy.OPT(), opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 || bytes.Count(seq, []byte{'\n'}) < 2 {
		t.Fatalf("JSONL output suspiciously small: %d bytes", len(seq))
	}
	if par := render(4); !bytes.Equal(seq, par) {
		t.Fatal("JSONL output differs between 1 and 4 workers")
	}
}

// TestJournalHoldsEncodeRecord: the engine hands the journal each
// record's wire value, and every entry's payload is byte for byte what
// EncodeRecord writes for the study's record under that key. It covers
// clean and faulted studies (salvage reports with their errors) at 1
// and 4 workers, each with one run that panics on every attempt, whose
// record carries a stack.
func TestJournalHoldsEncodeRecord(t *testing.T) {
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		return area == "A2" && locIdx == 1 && runIdx == 0
	}
	defer func() { testHookPanic = nil }()
	rates := faults.Profile(0.08)
	for _, faulted := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			opts := tinyOpts()
			opts.Workers = workers
			if faulted {
				opts.FaultRates = &rates
			}
			opts.Checkpoint = filepath.Join(t.TempDir(), "study.ckpt")
			st := runOPT(t, opts)
			recs := map[string]*Record{}
			for _, r := range st.Records("") {
				recs[runKey(r.Op, r.Area, r.LocIndex, r.RunIndex, opts.Seed)] = r
			}
			jr, entries, _, err := checkpoint.Open(opts.Checkpoint)
			if err == nil {
				err = jr.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(recs)+1 {
				t.Fatalf("faulted=%v workers=%d: %d journal entries for %d records and the header",
					faulted, workers, len(entries), len(recs))
			}
			panicked, salvaged := 0, 0
			for _, e := range entries[1:] {
				rec, ok := recs[e.Key]
				if !ok {
					t.Fatalf("faulted=%v workers=%d: entry %q has no record", faulted, workers, e.Key)
				}
				want, err := EncodeRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.Payload, want) {
					i := 0
					for i < len(want) && i < len(e.Payload) && want[i] == e.Payload[i] {
						i++
					}
					lo := max(i-40, 0)
					t.Fatalf("faulted=%v workers=%d: entry %q differs from EncodeRecord at byte %d:\njournal …%s\n encode …%s",
						faulted, workers, e.Key, i, e.Payload[lo:min(i+40, len(e.Payload))], want[lo:min(i+40, len(want))])
				}
				if rec.FailKind == FailPanic {
					panicked++
				}
				if rec.Salvage != nil && len(rec.Salvage.Errors) > 0 {
					salvaged++
				}
			}
			if panicked != 1 || faulted != (salvaged > 0) {
				t.Fatalf("faulted=%v workers=%d: fixture journaled %d panicked and %d salvaged records, want 1 and some only when faulted",
					faulted, workers, panicked, salvaged)
			}
		}
	}
}

// TestResumeFromCrash: a study killed by the fault point after k
// checkpoint appends resumes to records deep-equal to an uninterrupted
// run's, and the journal skips exactly the completed runs.
func TestResumeFromCrash(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	total := len(want.Records(""))
	if total < 3 {
		t.Fatalf("fixture too small: %d runs", total)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "study.ckpt")
	reg := obs.NewRegistry()
	crashOpts := opts
	crashOpts.Checkpoint = path
	crashOpts.crashAfter = 2
	crashOpts.Metrics = reg
	_, err := runOperator(context.Background(), policy.OPT(), crashOpts)
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("err = %v, want errInjectedCrash", err)
	}
	if got := reg.Counter("campaign.runs.checkpointed").Value(); got != 2 {
		t.Fatalf("checkpointed = %d, want 2 (crash must stop persistence)", got)
	}

	resumeOpts := opts
	resumeOpts.Metrics = reg
	st, sal, err := resumeOPT(t, resumeOpts, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() {
		t.Fatalf("journal unexpectedly damaged: %s", sal.Summary())
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("resumed study diverged from uninterrupted study")
	}
	if got := reg.Counter("campaign.runs.resumed").Value(); got != 2 {
		t.Fatalf("resumed = %d, want 2", got)
	}
}

// TestCrashLeavesDispatchedPrefix: a study killed by the fault point
// inside its second area returns the runs it dispatched: the first area
// whole, a non-empty prefix of the second with no nil record, and no
// later area.
func TestCrashLeavesDispatchedPrefix(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 1
	opts.Checkpoint = filepath.Join(t.TempDir(), "study.ckpt")
	a1 := deploy.AreasFor("OPT")[0].Locations // one run per location at MinRunScale
	opts.crashAfter = a1 + 2
	st, err := runOperator(context.Background(), policy.OPT(), opts)
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("err = %v, want errInjectedCrash", err)
	}
	if len(st.Areas) != 2 || st.Areas[0].Spec.ID != "A1" || st.Areas[1].Spec.ID != "A2" {
		t.Fatalf("crashed study holds %d areas, want A1 and A2", len(st.Areas))
	}
	if got := len(st.Areas[0].Records); got != a1 {
		t.Fatalf("A1 holds %d records, want all %d", got, a1)
	}
	a2 := st.Areas[1]
	if got := len(a2.Records); got == 0 || got >= len(a2.Dep.Clusters) {
		t.Fatalf("A2 holds %d records, want a non-empty prefix of its %d runs", got, len(a2.Dep.Clusters))
	}
	for _, a := range st.Areas {
		for i, r := range a.Records {
			if r == nil || r.Area != a.Spec.ID || r.LocIndex != i {
				t.Fatalf("%s record %d is not that area's run %d", a.Spec.ID, i, i)
			}
		}
	}
}

// resumeOPT is Resume narrowed to OPT's areas (Resume proper runs
// every operator; tests stay fast on one).
func resumeOPT(t *testing.T, opts Options, path string) (*Study, *checkpoint.Salvage, error) {
	t.Helper()
	return resumeOperator(context.Background(), policy.OPT(), opts, path)
}

// crashedJournal runs OPT's study under opts until the fault point has
// appended k records and returns the journal's path.
func crashedJournal(t *testing.T, opts Options, k int) string {
	t.Helper()
	opts.Checkpoint = filepath.Join(t.TempDir(), "study.ckpt")
	opts.crashAfter = k
	if _, err := runOperator(context.Background(), policy.OPT(), opts); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("setup: %v", err)
	}
	return opts.Checkpoint
}

// TestResumeRequiresFlag: an existing journal is an error outside
// Resume, so two studies cannot interleave into one file.
func TestResumeRequiresFlag(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoint = crashedJournal(t, opts, 1)
	if _, err := runOperator(context.Background(), policy.OPT(), opts); err == nil {
		t.Fatal("reusing a populated journal without Resume must fail")
	}
}

// rewriteJournal replaces every entry's payload with edit's result,
// with valid checksums, so a test can plant what another writer would
// have journaled.
func rewriteJournal(t *testing.T, path string, edit func(key, payload string) string) {
	t.Helper()
	jr, entries, _, err := checkpoint.Open(path)
	if err == nil {
		err = errors.Join(jr.Close(), os.Remove(path))
	}
	if err == nil {
		jr, _, _, err = checkpoint.Open(path)
	}
	for _, e := range entries {
		if err == nil {
			err = jr.Append(e.Key, json.RawMessage(edit(e.Key, string(e.Payload))))
		}
	}
	if err == nil {
		err = jr.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestResumeAcceptsOlderJournal: a journal written before the
// keep_speeds and max_retries header members and the records' speeds
// member were retired still resumes, to the uninterrupted study. A
// header whose max_retries differs from the fixed budget was written
// by a different study and is refused.
func TestResumeAcceptsOlderJournal(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	older := func(maxRetries string) func(key, payload string) string {
		return func(key, payload string) string {
			was := payload
			if key == metaKey {
				payload = strings.Replace(payload, `,"faults":`, `,"keep_speeds":false,"faults":`, 1)
				payload = strings.TrimSuffix(payload, "}") + `,"max_retries":` + maxRetries + "}"
			} else {
				payload = strings.Replace(payload, `,"meas_count":`, `,"speeds":null,"meas_count":`, 1)
			}
			if payload == was {
				t.Fatalf("entry %s: no older member planted in %s", key, was)
			}
			return payload
		}
	}
	path := crashedJournal(t, opts, 2)
	rewriteJournal(t, path, older("1"))
	reg := obs.NewRegistry()
	resumeOpts := opts
	resumeOpts.Metrics = reg
	st, _, err := resumeOPT(t, resumeOpts, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign.runs.resumed").Value(); got != 2 {
		t.Fatalf("resumed = %d, want the 2 journaled runs replayed", got)
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("resuming an older journal diverged from the uninterrupted study")
	}

	path = crashedJournal(t, opts, 2)
	rewriteJournal(t, path, older("3"))
	if _, _, err := resumeOPT(t, opts, path); err == nil || !strings.Contains(err.Error(), "different study") {
		t.Fatalf("err = %v, want a foreign-study error for max_retries 3", err)
	}
}

// TestResumeRejectsCancelledRecord: a checksum-valid journal entry that
// holds a cancelled run is an error naming its key. Replaying it would
// stop sink delivery at that record while the study reported success.
func TestResumeRejectsCancelledRecord(t *testing.T) {
	opts := tinyOpts()
	path := crashedJournal(t, opts, 2)
	var bad string
	rewriteJournal(t, path, func(key, payload string) string {
		if key == metaKey || bad != "" {
			return payload
		}
		bad = key
		return strings.Replace(payload, `"fail_kind":0`, `"fail_kind":3`, 1)
	})
	var sunk bytes.Buffer
	opts.Sink = NewJSONLSink(&sunk)
	_, _, err := resumeOPT(t, opts, path)
	if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "fail_kind") {
		t.Fatalf("err = %v, want a fail_kind error naming entry %q", err, bad)
	}
	if sunk.Len() != 0 {
		t.Fatalf("sink received %d bytes from a rejected journal", sunk.Len())
	}
}

// TestResumeRejectsForeignJournal: the options fingerprint guards
// against resuming under different study options.
func TestResumeRejectsForeignJournal(t *testing.T) {
	opts := tinyOpts()
	path := crashedJournal(t, opts, 1)
	opts.Seed = 43
	if _, _, err := resumeOPT(t, opts, path); err == nil {
		t.Fatal("resuming under a different seed must fail the fingerprint check")
	}
}

// TestResumeSalvagesDamagedJournal: a torn journal tail (crash mid-
// append) is salvaged, the lost runs re-execute, and the study is
// still deep-equal to an uninterrupted one.
func TestResumeSalvagesDamagedJournal(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	path := crashedJournal(t, opts, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st, sal, err := resumeOPT(t, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Clean() {
		t.Fatal("damaged journal reported clean salvage")
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("salvaged resume diverged from uninterrupted study")
	}
}

// TestCancelDrainsGracefully: cancelling mid-study stops dispatch,
// aborts in-flight runs between events, and reports the cause.
func TestCancelDrainsGracefully(t *testing.T) {
	opts := tinyOpts()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := runOperator(ctx, policy.OPT(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, a := range st.Areas {
		for _, r := range a.Records {
			if r == nil {
				t.Fatal("cancelled study contains nil record slots")
			}
		}
	}
}

// TestStudyDeadlineResumesByteIdentical: a checkpointed study aborted
// by a study-wide context deadline must not journal its interrupted
// runs as permanent deadline failures; resuming re-executes them and
// converges on the uninterrupted study.
func TestStudyDeadlineResumesByteIdentical(t *testing.T) {
	opts := tinyOpts()
	want := runOPT(t, opts)
	path := filepath.Join(t.TempDir(), "study.ckpt")
	interrupted := opts
	interrupted.Checkpoint = path
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := runOperator(ctx, policy.OPT(), interrupted); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("setup: err = %v, want context.DeadlineExceeded", err)
	}
	st, sal, err := resumeOPT(t, opts, path)
	if err != nil {
		t.Fatal(err)
	}
	if !sal.Clean() {
		t.Fatalf("journal unexpectedly damaged: %s", sal.Summary())
	}
	if !reflect.DeepEqual(want.Areas, st.Areas) {
		t.Fatal("resume after a study-wide deadline diverged from the uninterrupted study")
	}
}

// TestCancelledRecordKind covers the cancelled branch of the taxonomy
// via the study's executeJob directly (the engine drops such records
// from sinks and journals).
func TestCancelledRecordKind(t *testing.T) {
	opts := tinyOpts().withDefaults()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &runner{opts: opts}
	rec := r.executeJob(ctx, StudyJob(policy.OPT(), dep, 0, 0, opts), runKey("OPT", "A1", 0, 0, opts.Seed))
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled", rec.FailKind)
	}
	if got := reg.Counter("campaign.failures.cancelled").Value(); got != 1 {
		t.Fatalf("campaign.failures.cancelled = %d, want 1", got)
	}
}

// TestRetryIsContextAware: a study cancelled before a panicked run's
// retry yields a cancelled record — not the interim panic, which would
// be checkpointed as final although an uninterrupted study would have
// retried it.
func TestRetryIsContextAware(t *testing.T) {
	opts := tinyOpts().withDefaults()
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		cancel()
		return true
	}
	defer func() { testHookPanic = nil }()
	rec := execute(ctx, StudyJob(policy.OPT(), dep, 0, 0, opts), nil)
	if rec.FailKind != FailCancelled || rec.Attempts != 1 {
		t.Fatalf("rec = kind %v attempts %d; want a cancelled record so resume re-runs with the full retry budget",
			rec.FailKind, rec.Attempts)
	}
	if rec.Stack != "" {
		t.Fatal("cancelled record must not carry the interim panic stack")
	}
}

// TestStudyDeadlineIsCancelled: expiry of the study context — even
// though it surfaces as context.DeadlineExceeded — classifies as
// FailCancelled: such runs have no durable result and a resumed study
// re-executes them.
func TestStudyDeadlineIsCancelled(t *testing.T) {
	opts := tinyOpts().withDefaults()
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := execute(ctx, StudyJob(policy.OPT(), dep, 0, 0, opts), nil)
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled for a study-wide deadline", rec.FailKind)
	}
}

// TestExecuteJobs: Execute returns a mixed list of clean and faulted
// jobs' records in job order, deep-equal at 1 and 4 workers. A retry
// perturbs a job's run and injector seeds alike: a faulted job whose
// first attempt panics comes back as the record of a fresh job with
// both seeds one perturbation higher. The study's faulted bytes rest on
// that rule, which keeps a retried run's injector seed at its run
// seed + 2. A job that still fails after its retry is Execute's error.
func TestExecuteJobs(t *testing.T) {
	op := policy.OPT()
	opts := tinyOpts().withDefaults()
	dep := deploy.Build(op, areaSpec(t, "A2"), opts.Seed+1)
	rates := faults.Profile(0.08)
	var jobs []Job
	for li := range dep.Clusters[:3] {
		clean := StudyJob(op, dep, li, 0, opts)
		faulted := clean
		faulted.RunIndex, faulted.FaultRates, faulted.FaultSeed = 1, &rates, clean.Seed+2
		jobs = append(jobs, clean, faulted)
	}
	var first []*Record
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		recs, err := Execute(context.Background(), "test", jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if (rec.Salvage != nil) != (jobs[i].FaultRates != nil) || rec.LocIndex != jobs[i].LocIndex {
				t.Fatalf("workers=%d: record %d is not job %d's", workers, i, i)
			}
		}
		if first == nil {
			first = recs
		} else if !reflect.DeepEqual(first, recs) {
			t.Fatal("records differ between 1 and 4 workers")
		}
	}

	faulted := jobs[1]
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool {
		return runIdx == 1 && attempt == 0
	}
	retried, err := Execute(context.Background(), "test", []Job{faulted}, opts)
	testHookPanic = nil
	if err != nil {
		t.Fatal(err)
	}
	if retried[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", retried[0].Attempts)
	}
	fresh := faulted
	fresh.Seed += 1_000_000_007
	fresh.FaultSeed += 1_000_000_007
	want, err := Execute(context.Background(), "test", []Job{fresh}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want[0].Attempts = 2
	if !reflect.DeepEqual(retried[0], want[0]) {
		t.Fatal("a retried faulted job differs from a fresh job with both seeds perturbed")
	}
	if reflect.DeepEqual(retried[0].Salvage, first[1].Salvage) {
		t.Fatal("the retry did not perturb the injector seed")
	}

	// A job that fails every attempt is Execute's error, with its stack.
	testHookPanic = func(area string, locIdx, runIdx, attempt int) bool { return runIdx == 1 }
	_, err = Execute(context.Background(), "test", jobs, opts)
	testHookPanic = nil
	if err == nil || !strings.Contains(err.Error(), "test job 1 failed after 2 attempts: injected test failure") ||
		!strings.Contains(err.Error(), "runOnce") {
		t.Fatalf("Execute error = %v, want job 1's failure with its stack", err)
	}
}
