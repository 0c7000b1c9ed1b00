package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// ingestWorkload analyzes a corpus of clean 5-minute capture files the
// way `loopctl analyze` does: open, strict parse, extract, detect and
// classify. Nothing is simulated while it is timed.
type ingestWorkload struct {
	cfg      config
	dir      string
	corpus   []string // capture file paths
	expected []string // per capture: the loops of the log it was emitted from
	got      []string // per capture: the loops the last batch found
	errs     []error
}

// captures are the corpus's runs: round-robin over the 11 areas, then
// over each area's clusters, each with its own seed.
func (w *ingestWorkload) captures() []uesim.Config {
	areas := deploy.Areas()
	deps := make([]*deploy.Deployment, len(areas))
	for i, spec := range areas {
		deps[i] = deploy.Build(policy.ByName(spec.Operator), spec, w.cfg.seed+1)
	}
	out := make([]uesim.Config, w.cfg.captures)
	for i := range out {
		dep := deps[i%len(deps)]
		out[i] = uesim.Config{
			Op: dep.Op, Field: dep.Field, Cluster: dep.Clusters[(i/len(deps))%len(dep.Clusters)],
			Device: device.OnePlus12R(), Duration: runDuration, Seed: w.cfg.seed*7919 + int64(i),
		}
	}
	return out
}

// setup simulates the corpus and writes each capture to its own file.
func (w *ingestWorkload) setup(ctx context.Context) error {
	if err := w.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "loopbench-ingest-")
	if err != nil {
		return err
	}
	w.dir = dir
	caps := w.captures()
	w.corpus = make([]string, len(caps))
	errs := make([]error, len(caps))
	forEach(len(caps), w.cfg.workers, func(i int) {
		w.corpus[i] = filepath.Join(dir, fmt.Sprintf("capture-%03d.log", i))
		errs[i] = writeCapture(ctx, w.corpus[i], caps[i])
	})
	return firstError(errs)
}

// writeCapture simulates one run straight into a capture file.
func writeCapture(ctx context.Context, path string, cfg uesim.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	em := sig.NewEmitter(f)
	err = uesim.RunToContext(ctx, cfg, em)
	if cerr := em.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// analyzeFile is `loopctl analyze` on one capture file.
func analyzeFile(path string) (core.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Analysis{}, err
	}
	defer f.Close()
	log, err := sig.Parse(f)
	if err != nil {
		return core.Analysis{}, err
	}
	return core.Analyze(trace.Extract(log)), nil
}

// reference re-simulates every capture into memory and analyzes the log
// directly, without the text round trip.
func (w *ingestWorkload) reference(ctx context.Context) error {
	caps := w.captures()
	w.expected = make([]string, len(caps))
	errs := make([]error, len(caps))
	forEach(len(caps), w.cfg.workers, func(i int) {
		log := &sig.Log{}
		if errs[i] = uesim.RunToContext(ctx, caps[i], log); errs[i] == nil {
			w.expected[i] = loopSignature(core.Analyze(trace.FromLog(log)))
		}
	})
	return firstError(errs)
}

// batch analyzes every capture and keeps only what it found, so the
// batch's timelines are garbage by the time the next capture starts.
func (w *ingestWorkload) batch(ctx context.Context, b int) error {
	w.got = make([]string, len(w.corpus))
	w.errs = make([]error, len(w.corpus))
	forEach(len(w.corpus), w.cfg.workers, func(i int) {
		an, err := analyzeFile(w.corpus[i])
		w.got[i], w.errs[i] = loopSignature(an), err
	})
	return nil
}

// check compares every capture's loops with the reference.
func (w *ingestWorkload) check(ctx context.Context, b int) (batchCheck, error) {
	c := batchCheck{ops: len(w.corpus)}
	h := sha256.New()
	for i, got := range w.got {
		if w.errs[i] != nil || got != w.expected[i] {
			c.failed++
		}
		fmt.Fprintf(h, "%d:%s\n", i, got)
	}
	if b == 0 {
		c.digest = hex.EncodeToString(h.Sum(nil))
	}
	return c, nil
}

// pass analyzes the corpus serially, one layer call at a time.
func (w *ingestWorkload) pass(ctx context.Context, t *tracer, reg *obs.Registry) (passStats, error) {
	var ps passStats
	var c obs.Collector
	if reg != nil {
		c = reg
	}
	root := t.start("bench.pass", -1, -1)
	got := make([]string, len(w.corpus))
	for i, path := range w.corpus {
		o := t.start("bench.op", root, i)
		f, err := os.Open(path)
		if err != nil {
			return ps, err
		}
		cr := &countingReader{r: f}
		s := t.start("sig.ParseObserved", o, i)
		log, err := sig.ParseObserved(cr, c)
		t.end(s)
		f.Close()
		if err != nil {
			return ps, err
		}
		s = t.start("trace.Extract", o, i)
		tl := trace.Extract(log)
		t.end(s)
		s = t.start("core.Analyze", o, i)
		an := core.Analyze(tl)
		t.end(s)
		got[i] = loopSignature(an)
		t.end(o)
		ps.count(tl, an)
		ps.parseBytes += cr.n
	}
	t.end(root)
	ps.ops = len(w.corpus)
	for i := range got {
		if got[i] != w.expected[i] {
			ps.failed++
		}
	}
	return ps, nil
}

func (w *ingestWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// loopSignature renders what the detector found in one capture: each
// loop's fingerprint, sub-type and form.
func loopSignature(an core.Analysis) string {
	var b strings.Builder
	for i, l := range an.Loops {
		fmt.Fprintf(&b, "%s/%s/%s;", l.Fingerprint(), an.Subtypes[i], l.Form)
	}
	return b.String()
}
