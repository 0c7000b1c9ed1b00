package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/policy"
)

// This file is the deterministic kill-and-resume harness for the
// engine. It drives a small single-operator fixture through
// Options.crashAfter — the in-process stand-in for a hard kill right
// after the N-th checkpoint append — then resumes from the surviving
// journal and compares against an uninterrupted baseline. Its property
// test sweeps every interruption point; the subprocess SIGTERM variant
// of the same experiment lives in cmd/campaign's tests, pinned against
// the rendered goldens.

// crashFixture is one reproducible study configuration under test. Its
// opts must not carry Checkpoint, Sink or crashAfter — the harness
// owns those knobs.
type crashFixture struct {
	op   *policy.Operator
	opts Options
}

// defaultCrashFixture is the canonical small fixture: one operator,
// minimal run scale, short runs. Big enough to exercise multiple areas
// and loops, small enough to sweep every interruption point.
func defaultCrashFixture() crashFixture {
	return crashFixture{
		op:   policy.OPT(),
		opts: Options{Seed: 42, Duration: 120 * time.Second, RunScale: MinRunScale},
	}
}

// withWorkers returns the fixture options pinned to a worker count.
func (f crashFixture) withWorkers(workers int) Options {
	o := f.opts
	o.Workers = workers
	return o
}

// baseline executes the fixture uninterrupted.
func (f crashFixture) baseline(workers int) (*Study, error) {
	return runOperator(context.Background(), f.op, f.withWorkers(workers))
}

// crashAt runs the fixture against the journal at path and kills the
// engine right after the k-th checkpoint append (k ≥ 1). It returns an
// error unless the engine died of exactly the injected crash.
func (f crashFixture) crashAt(path string, k, workers int) error {
	o := f.withWorkers(workers)
	o.Checkpoint = path
	o.crashAfter = k
	_, err := runOperator(context.Background(), f.op, o)
	if !errors.Is(err, errInjectedCrash) {
		return fmt.Errorf("crashAt(%d) returned %v, want the injected crash", k, err)
	}
	return nil
}

// resume continues the fixture from the journal at path.
func (f crashFixture) resume(path string, workers int) (*Study, *checkpoint.Salvage, error) {
	return f.resumeWith(f.withWorkers(workers), path)
}

// resumeWith is resume with explicit options (used to crash a resumed
// life again).
func (f crashFixture) resumeWith(o Options, path string) (*Study, *checkpoint.Salvage, error) {
	return resumeOperator(context.Background(), f.op, o, path)
}

// sameRecords reports whether two studies hold deep-equal areas —
// deployments, record order and record content. Opts are excluded:
// a resumed study legitimately differs in Checkpoint/Workers.
func sameRecords(want, got *Study) error {
	if len(want.Areas) != len(got.Areas) {
		return fmt.Errorf("%d areas vs %d", len(want.Areas), len(got.Areas))
	}
	for i, wa := range want.Areas {
		ga := got.Areas[i]
		if !reflect.DeepEqual(wa.Spec, ga.Spec) || !reflect.DeepEqual(wa.Dep, ga.Dep) {
			return fmt.Errorf("area %s: deployment diverged", wa.Spec.ID)
		}
		if len(wa.Records) != len(ga.Records) {
			return fmt.Errorf("area %s: %d records vs %d", wa.Spec.ID, len(wa.Records), len(ga.Records))
		}
		for j, wr := range wa.Records {
			if !reflect.DeepEqual(wr, ga.Records[j]) {
				return fmt.Errorf("area %s record %d (%s/%s/%d/%d): diverged",
					wa.Spec.ID, j, wr.Op, wr.Area, wr.LocIndex, wr.RunIndex)
			}
		}
	}
	return nil
}

// TestPropertyResumeFromEveryInterruptionPoint is the resilience
// property the engine stands on: for every interruption point
// k ∈ [0, totalRuns] — the engine killed right after the k-th
// checkpoint append — resuming from the surviving journal yields a
// study deep-equal to an uninterrupted one, at one worker and at four.
func TestPropertyResumeFromEveryInterruptionPoint(t *testing.T) {
	f := defaultCrashFixture()
	for _, workers := range []int{1, 4} {
		base, err := f.baseline(workers)
		if err != nil {
			t.Fatal(err)
		}
		total := len(base.Records(""))
		if total < 4 {
			t.Fatalf("fixture too small to be interesting: %d runs", total)
		}
		if n := base.Failures(); n != 0 {
			t.Fatalf("fixture baseline has %d failures; the property needs a clean fixture", n)
		}
		for k := 0; k <= total; k++ {
			path := filepath.Join(t.TempDir(), "study.ckpt")
			if k > 0 {
				if err := f.crashAt(path, k, workers); err != nil {
					t.Fatal(err)
				}
			}
			st, sal, err := f.resume(path, workers)
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			if !sal.Clean() {
				t.Fatalf("workers=%d k=%d: journal damaged: %s", workers, k, sal.Summary())
			}
			if err := sameRecords(base, st); err != nil {
				t.Fatalf("workers=%d k=%d: %v", workers, k, err)
			}
		}
	}
}

// TestCrossWorkerResume: a journal written under one worker count
// resumes cleanly under another — run identity is independent of
// scheduling.
func TestCrossWorkerResume(t *testing.T) {
	f := defaultCrashFixture()
	base, err := f.baseline(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.ckpt")
	if err := f.crashAt(path, 3, 4); err != nil {
		t.Fatal(err)
	}
	st, _, err := f.resume(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(base, st); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedCrashesConverge: crash, resume-and-crash-again, resume —
// a study that keeps dying still converges to the uninterrupted one,
// because each life extends the same journal.
func TestRepeatedCrashesConverge(t *testing.T) {
	f := defaultCrashFixture()
	base, err := f.baseline(2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.ckpt")
	if err := f.crashAt(path, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Second life: resume but crash again after two more appends.
	o := f.withWorkers(2)
	o.crashAfter = 2
	if _, _, err := f.resumeWith(o, path); err == nil {
		t.Fatal("second life should have crashed")
	}
	st, _, err := f.resume(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecords(base, st); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtJournalSize: the journal after crashAt(k) holds exactly
// the header plus k record lines — the fault point fires synchronously
// with the append.
func TestCrashAtJournalSize(t *testing.T) {
	f := defaultCrashFixture()
	path := filepath.Join(t.TempDir(), "study.ckpt")
	if err := f.crashAt(path, 3, 4); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 4 { // header + 3 records
		t.Fatalf("journal holds %d lines, want 4 (header + 3 records)", lines)
	}
}
