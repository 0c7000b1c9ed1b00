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
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
)

// tinyOpts is a fast single-operator study configuration.
func tinyOpts() Options {
	return Options{Seed: 42, Duration: 120 * time.Second, RunScale: MinRunScale}
}

// runArea executes all runs of one area outside a study: no journal,
// no sinks and no study context.
func runArea(op *policy.Operator, spec deploy.AreaSpec, opts Options) *AreaResult {
	r := &runner{opts: opts.withDefaults()}
	return r.runArea(context.Background(), op, spec)
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

// collectSink reassembles the delivered record stream into areas.
type collectSink struct{ areas []*AreaResult }

func (s *collectSink) BeginArea(spec deploy.AreaSpec, dep *deploy.Deployment) error {
	s.areas = append(s.areas, &AreaResult{Spec: spec, Dep: dep})
	return nil
}

func (s *collectSink) Record(rec *Record) error {
	a := s.areas[len(s.areas)-1]
	a.Records = append(a.Records, rec)
	return nil
}

// TestStudySinkEquivalence: the record stream reassembles into exactly
// the study the engine returns, at several worker counts.
func TestStudySinkEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := tinyOpts()
		opts.Workers = workers
		want := runOPT(t, opts)
		cs := &collectSink{}
		opts.Sink = cs
		got := runOPT(t, opts)
		if !reflect.DeepEqual(want.Areas, cs.areas) {
			t.Fatalf("workers=%d: streamed study diverged from materialized study", workers)
		}
		if !reflect.DeepEqual(got.Areas, cs.areas) {
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
// via ExecuteRunContext directly (the engine drops such records from
// sinks and journals).
func TestCancelledRecordKind(t *testing.T) {
	opts := tinyOpts().withDefaults()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	spec := areaSpec(t, "A1")
	dep := deploy.Build(policy.OPT(), spec, opts.Seed+1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := ExecuteRunContext(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
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
	rec := ExecuteRunContext(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
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
	rec := ExecuteRunContext(ctx, policy.OPT(), dep, dep.Clusters[0], 0, 0, opts)
	if rec.FailKind != FailCancelled {
		t.Fatalf("FailKind = %v, want FailCancelled for a study-wide deadline", rec.FailKind)
	}
}
