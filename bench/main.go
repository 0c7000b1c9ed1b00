// Command loopbench is loopscope's benchmark. It drives four workloads
// through the layers' public entry points, checks every output against
// a reference, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer breakdown of a traced single-goroutine pass) as one
// JSON object on the last line of standard output.
//
// Usage:
//
//	loopbench -workload study|faulted|ingest|replay [-seed N] [-seconds S]
//	          [-trace 0|1] [-smoke] [-out runs.jsonl] [-spans spans.json]
//	loopbench -compare [-claim workload:metric,...] parent.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool // one timed batch and one pass of each kind
	size     config
	out      string // append the full report to this JSONL file
	spans    string // write the traced spans to this JSON file
}

// run is the testable entry point; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: study, faulted, ingest or replay")
		seed    = fs.Int64("seed", 42, "seed every input derives from")
		seconds = fs.Float64("seconds", 20, "seconds of timed batches (traced: of each phase, halved)")
		trace   = fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end ones")
		smoke   = fs.Bool("smoke", false, "tiny inputs and one batch, for tests")
		out     = fs.String("out", "", "append the run's full report (quartiles, digest) to this JSONL file")
		spans   = fs.String("spans", "", "with -trace 1, write every span to this JSON file")
		compare = fs.Bool("compare", false, "compare two -out files: parent.jsonl change.jsonl")
		claim   = fs.String("claim", "", "with -compare, comma-separated workload:metric claims to test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "loopbench: -compare needs two files: parent.jsonl change.jsonl")
			return 2
		}
		return runCompare("", fs.Arg(0), fs.Arg(1), *claim, stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	rc := runConfig{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		smoke: *smoke, size: fullSize, out: *out, spans: *spans}
	if *smoke {
		rc.size = smokeSize
	}
	rc.size.seed = rc.seed
	w, err := newWorkload(rc.workload, rc.size)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(rc.size.workers)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execute(ctx, w, rc, stdout, stderr)
}

// execute measures one workload, prints the result and returns the
// exit code: 0 only when every output matched its reference.
func execute(ctx context.Context, w workload, rc runConfig, stdout, stderr io.Writer) int {
	rep, err := measure(ctx, w, rc)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	rep.printSummary(stderr)
	if rc.out != "" {
		if err := appendJSONLine(rc.out, rep); err != nil {
			fmt.Fprintln(stderr, "loopbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		fmt.Fprintf(stderr, "loopbench: %s: %d of %d ops failed or did not match the reference\n",
			rc.workload, rep.Result.Failed, rep.Result.Attempted)
		return 1
	}
	return 0
}

// appendJSONLine appends v as one JSON line to path.
func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
