package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/experiments"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
)

// replayIDs are the experiment generators that render from the study
// alone: no dense grid and no extra simulation.
var replayIDs = []string{"table3", "fig6", "fig8", "fig9", "fig10", "fig11", "fig13", "fig16", "table5", "fig17", "fig18", "fig19"}

// replayWorkload resumes a complete checkpoint journal and renders the
// study-only figures from it: the read side of the journal the study
// workload writes. Each worker replays its own copy of the journal,
// because an open journal is locked against other openers.
type replayWorkload struct {
	cfg      config
	dir      string
	journals []string // one per worker, byte-identical
	written  *campaign.Study
	records  int      // records in the journal
	digest   string   // digest of the study that wrote the journal
	lines    []string // its rendered figures
	results  []replayResult
}

type replayResult struct {
	digest string
	lines  []string
	err    error
}

func (w *replayWorkload) options() campaign.Options {
	return campaign.Options{Seed: w.cfg.seed, Duration: runDuration, RunScale: w.cfg.scale,
		Device: device.OnePlus12R(), Workers: w.cfg.workers}
}

// setup runs the study once with a journal and copies the journal for
// every other worker.
func (w *replayWorkload) setup(ctx context.Context) error {
	if err := w.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "loopbench-replay-")
	if err != nil {
		return err
	}
	w.dir = dir
	opts := w.options()
	opts.Checkpoint = filepath.Join(dir, "journal-0.ckpt")
	st, err := campaign.RunContext(ctx, opts)
	if err != nil {
		return err
	}
	w.written = st
	w.journals = []string{opts.Checkpoint}
	for i := 1; i < w.cfg.workers; i++ {
		path := filepath.Join(dir, fmt.Sprintf("journal-%d.ckpt", i))
		if err := copyFile(opts.Checkpoint, path); err != nil {
			return err
		}
		w.journals = append(w.journals, path)
	}
	return nil
}

// reference renders the figures from the in-memory study that wrote
// the journal.
func (w *replayWorkload) reference(ctx context.Context) error {
	d, err := studyDigest(w.written)
	if err != nil {
		return err
	}
	w.records, w.digest, w.lines = len(w.written.Records("")), d, render(w.written)
	w.written = nil
	return nil
}

func (w *replayWorkload) batch(ctx context.Context, b int) error {
	w.results = make([]replayResult, len(w.journals))
	forEach(len(w.journals), w.cfg.workers, func(i int) {
		r := &w.results[i]
		opts := w.options()
		opts.Workers = 1 // the workers of this closed loop are the journals
		st, sal, err := campaign.Resume(ctx, opts, w.journals[i])
		if err == nil && !sal.Clean() {
			err = fmt.Errorf("journal %s needed salvage: %s", w.journals[i], sal.Summary())
		}
		if err != nil {
			r.err = err
			return
		}
		r.lines = render(st)
		r.digest, r.err = studyDigest(st)
	})
	return nil
}

// check compares each resumed study and its figures with the study
// that wrote the journal.
func (w *replayWorkload) check(ctx context.Context, b int) (batchCheck, error) {
	c := batchCheck{ops: w.records * len(w.results)}
	for _, r := range w.results {
		if r.err != nil || r.digest != w.digest || !slices.Equal(r.lines, w.lines) {
			c.failed += w.records
		}
	}
	if b == 0 {
		c.digest = linesDigest(w.digest, w.lines)
	}
	return c, nil
}

// pass replays the journal serially: open and scan it, decode every
// record, rebuild the deployments, assemble the study in study order
// and render the figures.
func (w *replayWorkload) pass(ctx context.Context, t *tracer, reg *obs.Registry) (passStats, error) {
	var ps passStats
	root := t.start("bench.pass", -1, -1)
	s := t.start("checkpoint.Open", root, -1)
	jr, entries, _, err := checkpoint.Open(w.journals[0])
	if err == nil {
		err = jr.Close()
	}
	t.end(s)
	if err != nil {
		return ps, err
	}
	type runID struct {
		area   string
		li, ri int
	}
	byRun := make(map[runID]*campaign.Record, len(entries))
	for _, e := range entries {
		if strings.HasPrefix(e.Key, "meta/") {
			continue // the options header, not a record
		}
		o := t.start("bench.op", root, ps.ops)
		s := t.start("campaign.DecodeRecord", o, ps.ops)
		rec, err := campaign.DecodeRecord(e.Payload)
		t.end(s)
		t.end(o)
		if err != nil {
			return ps, err
		}
		ps.ops++
		ps.records++
		ps.recordBytes += int64(len(e.Payload))
		byRun[runID{rec.Area, rec.LocIndex, rec.RunIndex}] = rec
	}
	opts := w.options()
	st := &campaign.Study{Opts: opts}
	for _, spec := range deploy.Areas() {
		s := t.start("deploy.Build", root, -1)
		dep := deploy.Build(policy.ByName(spec.Operator), spec, opts.Seed+1)
		t.end(s)
		a := &campaign.AreaResult{Spec: spec, Dep: dep}
		for li := range dep.Clusters {
			for ri := 0; ri < runsPerLocation(spec, opts.RunScale); ri++ {
				if rec := byRun[runID{spec.ID, li, ri}]; rec != nil {
					a.Records = append(a.Records, rec)
				}
			}
		}
		st.Areas = append(st.Areas, a)
	}
	lines := renderTraced(st, t, root)
	t.end(root)
	fi, err := os.Stat(w.journals[0])
	if err != nil {
		return ps, err
	}
	ps.journalBytes = fi.Size()
	d, err := studyDigest(st)
	if err != nil {
		return ps, err
	}
	if d != w.digest || !slices.Equal(lines, w.lines) {
		ps.failed = ps.ops
	}
	return ps, nil
}

func (w *replayWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

// render renders the study-only figures, one banner line per figure
// followed by its lines.
func render(st *campaign.Study) []string { return renderTraced(st, nil, -1) }

func renderTraced(st *campaign.Study, t *tracer, parent int) []string {
	s := t.start("experiments.render", parent, -1)
	defer t.end(s)
	ec := experiments.NewContextWithStudy(st)
	var lines []string
	for _, id := range replayIDs {
		g, ok := experiments.ByID(id)
		if !ok {
			lines = append(lines, "missing generator "+id)
			continue
		}
		gs := t.start("experiments."+id, s, -1)
		res := g.Run(ec)
		t.end(gs)
		lines = append(lines, "== "+res.ID+" "+res.Title)
		lines = append(lines, res.Lines...)
	}
	return lines
}

// linesDigest folds a record digest and rendered lines into one digest.
func linesDigest(records string, lines []string) string {
	h := sha256.New()
	io.WriteString(h, records)
	for _, l := range lines {
		io.WriteString(h, "\n"+l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// copyFile copies src to a new file dst.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
