package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/trace"
)

// runDuration is the length of every simulated run (§4.1's 5 minutes).
const runDuration = 5 * time.Minute

// config sizes a workload.
type config struct {
	seed     int64
	scale    float64 // campaign RunScale of the studies
	captures int     // ingest corpus size
	workers  int     // closed-loop workers
}

// fullSize and smokeSize are the two workload sizes; -smoke picks the
// second, which exercises every code path in a few seconds.
var (
	fullSize  = config{scale: 1, captures: 512, workers: 2}
	smokeSize = config{scale: 0.02, captures: 8, workers: 2}
)

// workload is one benchmark workload. measure calls setup (timed,
// repeated), reference, then batch and check alternately, and in a
// traced run also pass.
type workload interface {
	// setup generates the inputs from the seed; each call replaces the
	// inputs of the previous one.
	setup(ctx context.Context) error
	// reference computes the expected outputs of the inputs.
	reference(ctx context.Context) error
	// batch runs batch b on the closed loop and keeps its outputs; only
	// this call is timed.
	batch(ctx context.Context, b int) error
	// check verifies batch b's outputs. For batch 0 it also returns the
	// workload's output digest.
	check(ctx context.Context, b int) (batchCheck, error)
	// pass drives the same work serially on one goroutine, calling each
	// layer's entry point itself; spans go to t and counts to reg, both
	// nil in an untraced pass.
	pass(ctx context.Context, t *tracer, reg *obs.Registry) (passStats, error)
	// close removes whatever the workload wrote to disk.
	close() error
}

// batchCheck is the verdict on one batch's outputs.
type batchCheck struct {
	ops, failed int
	digest      string
}

// passStats counts what one serial pass did.
type passStats struct {
	ops, failed  int
	parseBytes   int64 // capture text fed to the parser
	steps        int   // timeline steps extracted
	loops        int   // loops detected
	loopOps      int   // ops with at least one loop
	records      int   // records encoded or decoded
	recordBytes  int64 // their wire size
	journalBytes int64 // size of the journal written or read
}

// count adds one op's timeline and analysis to the tallies.
func (ps *passStats) count(tl *trace.Timeline, an core.Analysis) {
	ps.steps += len(tl.Steps)
	ps.loops += len(an.Loops)
	if an.HasLoop() {
		ps.loopOps++
	}
}

// add accumulates another pass's tallies.
func (ps *passStats) add(o passStats) {
	ps.ops += o.ops
	ps.failed += o.failed
	ps.parseBytes += o.parseBytes
	ps.steps += o.steps
	ps.loops += o.loops
	ps.loopOps += o.loopOps
	ps.records += o.records
	ps.recordBytes += o.recordBytes
	ps.journalBytes += o.journalBytes
}

// workloadNames are the benchmark's workloads.
var workloadNames = []string{"study", "faulted", "ingest", "replay"}

// newWorkload returns the named workload at the given size.
func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "study":
		return &studyWorkload{cfg: cfg}, nil
	case "faulted":
		return &studyWorkload{cfg: cfg, faulted: true}, nil
	case "ingest":
		return &ingestWorkload{cfg: cfg}, nil
	case "replay":
		return &replayWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// batchSeed is the study seed of batch b.
func batchSeed(seed int64, b int) int64 { return seed + int64(b) }

// forEach calls fn(0..n-1) on a closed loop of workers: each worker
// takes the next index when its previous call returns. It returns once
// every call has.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// firstError returns the first non-nil error, annotated with its index.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}
