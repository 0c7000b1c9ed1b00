package uesim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
)

// cancelAfterSink cancels a context once n events have been appended.
type cancelAfterSink struct {
	log    sig.Log
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfterSink) Append(at time.Duration, m rrc.Message) {
	s.log.Append(at, m)
	if len(s.log.Events) == s.n {
		s.cancel()
	}
}

func ctxCfg(t *testing.T) Config {
	t.Helper()
	d, cl := findCluster(t, policy.OPT(), "A1", 0)
	return Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: time.Minute, Seed: 7}
}

// TestRunToContextBackgroundMatchesRun: under a context that never
// cancels, the streaming form emits exactly the log Run collects.
func TestRunToContextBackgroundMatchesRun(t *testing.T) {
	cfg := ctxCfg(t)
	want := Run(cfg)
	got := &sig.Log{}
	if err := RunToContext(context.Background(), cfg, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatal("RunToContext(Background) diverged from Run")
	}
	// A nil context behaves like Background.
	got2 := &sig.Log{}
	if err := RunToContext(nil, cfg, got2); err != nil { //lint:ignore SA1012 nil-tolerance is part of the contract under test
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Events, got2.Events) {
		t.Fatal("RunToContext(nil) diverged from Run")
	}
}

func TestRunToContextCancelledUpfront(t *testing.T) {
	cfg := ctxCfg(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	log := &sig.Log{}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	err := RunToContext(ctx, cfg, log)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(log.Events) != 0 {
		t.Fatalf("cancelled-before-start run emitted %d events", len(log.Events))
	}
	if got := reg.Counter("uesim.runs.cancelled").Value(); got != 1 {
		t.Fatalf("uesim.runs.cancelled = %d, want 1", got)
	}
	if got := reg.Counter("uesim.runs").Value(); got != 0 {
		t.Fatal("an aborted run must not count as completed")
	}
}

func TestRunToContextMidRunCancelEmitsStrictPrefix(t *testing.T) {
	cfg := ctxCfg(t)
	full := Run(cfg)
	if len(full.Events) < 20 {
		t.Fatalf("fixture too small: %d events", len(full.Events))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterSink{n: 10, cancel: cancel}
	err := RunToContext(ctx, cfg, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got := sink.log.Events
	// emit checks the context before appending, so exactly the n-th
	// append triggered the cancel and at most one event could race in
	// (none here: same goroutine).
	if len(got) != 10 {
		t.Fatalf("aborted run emitted %d events, want 10", len(got))
	}
	if !reflect.DeepEqual(got, full.Events[:len(got)]) {
		t.Fatal("aborted run is not a strict prefix of the uninterrupted stream")
	}
}

func TestRunToContextDeadline(t *testing.T) {
	cfg := ctxCfg(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := RunToContext(ctx, cfg, &sig.Log{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
