// Command campaign runs the measurement study and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	campaign [-exp id[,id...]|all] [-seed N] [-scale F] [-duration D] [-list]
//	         [-checkpoint journal] [-resume] [-sink out.jsonl] [-workers N]
//	         [-export dir] [-report out.md]
//	         [-metrics out.json] [-debug-addr host:port]
//
// Every invocation runs (or resumes) one study and renders everything
// it writes from that study. With -exp all (the default) every
// experiment renders in the paper's presentation order; a
// comma-separated list (-exp fig20,fig21,fig22) renders those
// experiments in that order. -export writes the dataset as CSV and
// -report writes the experiments as a markdown report instead of
// printing them; the two compose.
// -checkpoint journals every completed run into a durable file; after a
// crash or a SIGTERM (exit code 3) the same invocation plus -resume
// replays the journal and continues, producing output byte-identical to
// an uninterrupted run (see docs/RESILIENCE.md). -sink streams each run
// record as JSON lines while the study executes. -metrics writes an
// observability snapshot (stage spans, run/retry/salvage counters) as
// stable JSON after the run; -debug-addr serves pprof, expvar and the
// live snapshot while the study executes.
//
// -checkpoint, -sink, -report, -metrics and the three CSV files -export
// writes (runs.csv, loops.csv and locations.csv in its directory) must
// be distinct files: two flags naming one file, by the same path,
// another spelling of it, a symlink or a hard link, is a usage error
// (exit 2) checked before any file is created, so no output can
// truncate the journal a -resume is about to replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/report"
)

// flagError reports the first numeric flag whose value has no meaning:
// a run that is not positive long observes nothing (and the study
// options would read zero as the 5-minute default), and a negative pool
// size would read as "one worker per CPU". A negative or NaN -scale is
// not an error: the study clamps it to its smallest run scale.
func flagError(duration time.Duration, workers int) string {
	switch {
	case duration <= 0:
		return fmt.Sprintf("-duration %v: must be positive", duration)
	case workers < 0:
		return fmt.Sprintf("-workers %d: must not be negative", workers)
	}
	return ""
}

// fileFlag is a flag that names a file the run writes; an empty path
// is a flag not given.
type fileFlag struct{ name, path string }

// fileFlagClash reports the first two file flags that name one file.
// Each flag creates or appends to its own file, so a shared one loses
// a writer's bytes: a -sink, -report or -export CSV created over a
// -checkpoint journal truncates it before -resume replays it.
func fileFlagClash(flags []fileFlag) string {
	for i, a := range flags {
		for _, b := range flags[i+1:] {
			if a.path != "" && b.path != "" && sameFile(a.path, b.path) {
				return fmt.Sprintf("-%s %s and -%s %s name the same file", a.name, a.path, b.name, b.path)
			}
		}
	}
	return ""
}

// sameFile reports whether two paths name one file: their cleaned
// absolute paths are equal, or both files exist and are the same file
// (one reached through a symlink or a hard link).
func sameFile(a, b string) bool {
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	if errA == nil && errB == nil && absA == absB {
		return true
	}
	fa, errA := os.Stat(a)
	fb, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(fa, fb)
}

// exitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM;
// with -checkpoint the journal permits continuation via -resume.
const exitInterrupted = 3

// signalsHeld, when set, is called once run holds its signal context,
// from which point SIGINT and SIGTERM cancel the study instead of
// killing the process. Only tests set it.
var signalsHeld func()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment ID (fig6, table5, ...), a comma-separated list of IDs, or 'all'")
		seed     = fs.Int64("seed", 42, "master seed of the study")
		scale    = fs.Float64("scale", 1.0, "run-count scale factor")
		duration = fs.Duration("duration", loopscope.DefaultRunDuration, "stationary run duration")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		export   = fs.String("export", "", "directory to export the dataset as CSV (runs/loops/locations)")
		reportTo = fs.String("report", "", "write a full markdown report to this file")
		ckpt     = fs.String("checkpoint", "", "journal every completed run into this file (crash-recoverable; see -resume)")
		resume   = fs.Bool("resume", false, "replay the -checkpoint journal, skipping runs it already holds")
		sink     = fs.String("sink", "", "stream every run record to this file as JSON lines while the study executes")
		workers  = fs.Int("workers", 0, "study worker pool size (0 = one per CPU; output is identical at any count)")
		metrics  = fs.String("metrics", "", "write a metrics snapshot (stable JSON) to this file after the run")
		debug    = fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address while the study runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if msg := flagError(*duration, *workers); msg != "" {
		fmt.Fprintln(stderr, "campaign:", msg)
		return 2
	}

	ids := loopscope.ExperimentIDs()
	if *list {
		keys := make([]string, 0, len(ids))
		for id := range ids {
			keys = append(keys, id)
		}
		sort.Strings(keys)
		for _, id := range keys {
			fmt.Fprintf(stdout, "%-8s %s\n", id, ids[id])
		}
		return 0
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(stderr, "campaign: -resume requires -checkpoint (the journal to replay)")
		return 2
	}
	files := []fileFlag{{"checkpoint", *ckpt}, {"sink", *sink}, {"report", *reportTo}, {"metrics", *metrics}}
	if *export != "" {
		for _, f := range exportTables {
			files = append(files, fileFlag{"export", filepath.Join(*export, f.name)})
		}
	}
	if msg := fileFlagClash(files); msg != "" {
		fmt.Fprintln(stderr, "campaign:", msg)
		return 2
	}

	opts := loopscope.StudyOptions{Seed: *seed, RunScale: *scale, Duration: *duration,
		Workers: *workers, Checkpoint: *ckpt}
	var reg *obs.Registry
	if *metrics != "" || *debug != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	if *debug != "" {
		bound, stop, err := obs.StartDebugServer(*debug, reg)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		defer func() {
			// stop drains in-flight scrapes for obs.DefaultDrainTimeout,
			// then cuts stragglers loose and reports the overrun.
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "campaign: debug server:", err)
			}
		}()
		fmt.Fprintln(stderr, "campaign: debug server on http://"+bound)
	}

	var sel []string // nil runs every experiment
	if *exp != "all" {
		sel = strings.Split(*exp, ",")
	}
	if *export == "" || *reportTo != "" { // the experiments render
		for _, id := range sel {
			if _, ok := ids[id]; !ok {
				fmt.Fprintf(stderr, "campaign: unknown experiment %q (try -list)\n", id)
				return 2
			}
		}
	}

	// SIGINT/SIGTERM cancel the study context: dispatch stops, in-flight
	// runs abort between events, and completed work stays journaled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if signalsHeld != nil {
		signalsHeld()
	}

	st, code := buildStudy(ctx, stderr, opts, *sink, *resume)
	if code != 0 {
		return code
	}
	code = render(stdout, stderr, st, sel, *export, *reportTo)
	if code == 0 && *metrics != "" {
		if err := writeMetrics(*metrics, reg); err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintln(stderr, "campaign: wrote metrics snapshot to", *metrics)
	}
	return code
}

// buildStudy executes (or resumes) the study under ctx, wiring the
// optional JSONL record sink, and maps engine errors to exit codes.
func buildStudy(ctx context.Context, stderr io.Writer, opts loopscope.StudyOptions,
	sinkPath string, resume bool) (*loopscope.Study, int) {

	closeSink := func() error { return nil }
	if sinkPath != "" {
		f, err := os.Create(sinkPath)
		if err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return nil, 1
		}
		opts.Sink = loopscope.NewJSONLStudySink(f)
		closeSink = f.Close
	}
	var st *loopscope.Study
	var err error
	if resume {
		var sal *loopscope.CheckpointSalvage
		st, sal, err = loopscope.ResumeStudy(ctx, opts, opts.Checkpoint)
		if sal != nil && !sal.Clean() {
			fmt.Fprintln(stderr, "campaign: checkpoint journal salvaged:", sal.Summary())
		}
	} else {
		st, err = loopscope.RunStudy(ctx, opts)
	}
	if cerr := closeSink(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(stderr, "campaign: interrupted:", err)
			if opts.Checkpoint != "" {
				fmt.Fprintln(stderr, "campaign: completed runs are journaled in", opts.Checkpoint,
					"— re-run with -resume to continue")
			}
			return nil, exitInterrupted
		}
		fmt.Fprintln(stderr, "campaign:", err)
		return nil, 1
	}
	return st, 0
}

// render produces the selected outputs from the materialized study:
// the CSV export and the markdown report of the experiments sel names
// (all for nil), or, when neither is asked for, those experiments on
// stdout.
func render(stdout, stderr io.Writer, st *loopscope.Study, sel []string, export, reportTo string) int {
	if export != "" {
		if err := exportDataset(stdout, export, st); err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
	}
	if reportTo != "" {
		if err := writeReport(reportTo, st, sel); err != nil {
			fmt.Fprintln(stderr, "campaign:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", reportTo)
	}
	if export == "" && reportTo == "" {
		for _, res := range loopscope.ExperimentsWithStudy(sel, st) {
			printExperiment(stdout, res.ID, res.Title, res.Lines)
		}
	}
	return 0
}

// writeReport renders the markdown report of st to path.
func writeReport(path string, st *loopscope.Study, sel []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Write(f, st, sel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the registry snapshot to path.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printExperiment renders one experiment's banner and result lines.
func printExperiment(w io.Writer, id, title string, lines []string) {
	fmt.Fprintf(w, "==================== %s — %s\n", id, title)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
}

// exportTables are the CSV files -export writes into its directory.
var exportTables = []struct {
	name  string
	write func(st *loopscope.Study, f *os.File) error
}{
	{"runs.csv", func(st *loopscope.Study, f *os.File) error { return loopscope.ExportStudyCSV(st, f, nil, nil) }},
	{"loops.csv", func(st *loopscope.Study, f *os.File) error { return loopscope.ExportStudyCSV(st, nil, f, nil) }},
	{"locations.csv", func(st *loopscope.Study, f *os.File) error { return loopscope.ExportStudyCSV(st, nil, nil, f) }},
}

// exportDataset writes the study's CSV tables.
func exportDataset(stdout io.Writer, dir string, st *loopscope.Study) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range exportTables {
		file, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if err := f.write(st, file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", filepath.Join(dir, f.name))
	}
	return nil
}
