package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// faultRate is the per-line corruption budget of the faulted workload.
const faultRate = 0.05

// studyWorkload regenerates the paper-scale study through
// campaign.RunContext, one study per batch, each with its own seed.
// The clean variant journals every run to a fresh checkpoint file; the
// faulted variant corrupts every capture in flight and salvages it.
type studyWorkload struct {
	cfg     config
	faulted bool
	rates   *faults.Rates
	dir     string               // work directory: journals of the batches and passes
	plan    []*deploy.Deployment // batch 0's deployments, area by area
	last    *campaign.Study      // the last batch's study
	ref     string               // digest of batch 0, which every serial pass must match
}

// setup derives batch 0's plan, the deployment of every area that its
// records are checked against. The first call also makes the journal
// directory.
func (w *studyWorkload) setup(ctx context.Context) error {
	if w.dir == "" {
		dir, err := os.MkdirTemp("", "loopbench-study-")
		if err != nil {
			return err
		}
		w.dir = dir
	}
	if w.faulted {
		r := faults.Profile(faultRate)
		w.rates = &r
	}
	w.plan = nil
	for _, spec := range deploy.Areas() {
		w.plan = append(w.plan, deploy.Build(policy.ByName(spec.Operator), spec, batchSeed(w.cfg.seed, 0)+1))
	}
	return nil
}

func (w *studyWorkload) reference(ctx context.Context) error { return nil }

// options are batch b's study options. Batch 0, the warm-up, runs on
// one worker and is the reference; batch 1 repeats its seed on the
// closed loop's workers, so one study checks that the record order and
// content do not depend on the worker count.
func (w *studyWorkload) options(b int) campaign.Options {
	workers := w.cfg.workers
	if b == 0 {
		workers = 1
	}
	o := campaign.Options{
		Seed:       batchSeed(w.cfg.seed, max(b-1, 0)),
		Duration:   runDuration,
		RunScale:   w.cfg.scale,
		Device:     device.OnePlus12R(),
		Workers:    workers,
		FaultRates: w.rates,
	}
	if !w.faulted {
		o.Checkpoint = filepath.Join(w.dir, fmt.Sprintf("batch-%d.ckpt", b))
	}
	return o
}

func (w *studyWorkload) batch(ctx context.Context, b int) error {
	st, err := campaign.RunContext(ctx, w.options(b))
	w.last = st
	return err
}

// check counts the batch's runs and failure records. Batch 0 is also
// the reference, whose records must follow the plan; batch 1 must
// reproduce its digest.
func (w *studyWorkload) check(ctx context.Context, b int) (batchCheck, error) {
	st := w.last
	if err := w.removeJournal(w.options(b)); err != nil {
		return batchCheck{}, err
	}
	c := batchCheck{ops: len(st.Records(""))}
	for _, a := range st.Areas {
		want := len(a.Dep.Clusters) * runsPerLocation(a.Spec, w.cfg.scale)
		c.failed += absInt(want-len(a.Records)) + a.Failures()
	}
	if b > 1 {
		return c, nil
	}
	digest, err := studyDigest(st)
	if err != nil {
		return c, err
	}
	if b == 1 {
		if digest != w.ref {
			c.failed = c.ops
		}
		return c, nil
	}
	if len(st.Areas) != len(w.plan) {
		c.failed = c.ops
	}
	for i, a := range st.Areas[:min(len(st.Areas), len(w.plan))] {
		dep := w.plan[i]
		want := len(dep.Clusters) * runsPerLocation(dep.Area, w.cfg.scale)
		c.failed += absInt(want - len(a.Records))
		for _, r := range a.Records {
			if r.Area != dep.Area.ID || r.LocIndex >= len(dep.Clusters) || r.Arch != dep.Clusters[r.LocIndex].Arch {
				c.failed++
			}
		}
	}
	w.ref, c.digest = digest, digest
	return c, nil
}

func (w *studyWorkload) removeJournal(o campaign.Options) error {
	if o.Checkpoint == "" {
		return nil
	}
	return os.Remove(o.Checkpoint)
}

// studyPass is the state of one serial pass.
type studyPass struct {
	ctx  context.Context
	t    *tracer
	c    obs.Collector
	jr   *checkpoint.Journal // nil in the faulted variant, which journals nothing
	h    hash.Hash
	seed int64
	root int
	ps   passStats
}

// pass runs batch 0's study serially, calling each layer itself in the
// order campaign's run pipeline does, and checks that the records it
// builds have batch 0's digest.
func (w *studyWorkload) pass(ctx context.Context, t *tracer, reg *obs.Registry) (passStats, error) {
	p := &studyPass{ctx: ctx, t: t, h: sha256.New(), seed: batchSeed(w.cfg.seed, 0)}
	if reg != nil {
		p.c = reg
	}
	p.root = t.start("bench.pass", -1, -1)
	path := filepath.Join(w.dir, "pass.ckpt")
	if !w.faulted {
		s := t.start("checkpoint.Open", p.root, -1)
		jr, _, _, err := checkpoint.Open(path)
		t.end(s)
		if err != nil {
			return p.ps, err
		}
		p.jr = jr
	}
	for _, spec := range deploy.Areas() {
		s := t.start("deploy.Build", p.root, -1)
		dep := deploy.Build(policy.ByName(spec.Operator), spec, p.seed+1)
		t.end(s)
		runs := runsPerLocation(spec, w.cfg.scale)
		for li, cl := range dep.Clusters {
			for ri := 0; ri < runs; ri++ {
				if err := w.run(p, dep, cl, li, ri); err != nil {
					return p.ps, err
				}
			}
		}
	}
	t.end(p.root)
	if p.jr != nil {
		if err := p.jr.Close(); err != nil {
			return p.ps, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return p.ps, err
		}
		p.ps.journalBytes = fi.Size()
		if err := os.Remove(path); err != nil {
			return p.ps, err
		}
	}
	if hex.EncodeToString(p.h.Sum(nil)) != w.ref {
		p.ps.failed = p.ps.ops
	}
	return p.ps, nil
}

// run is one run of the serial pass: simulate into a log; in the
// faulted variant emit, corrupt and salvage it; then extract, detect,
// encode and journal the record.
func (w *studyWorkload) run(p *studyPass, dep *deploy.Deployment, cl *deploy.Cluster, li, ri int) error {
	t, opIdx := p.t, p.ps.ops
	o := t.start("bench.op", p.root, opIdx)
	defer t.end(o)
	p.ps.ops++
	rs := runSeed(p.seed, dep.Area.ID, li, ri)
	rec := &campaign.Record{
		Op: dep.Op.Name, Area: dep.Area.ID, City: dep.Area.City, LocIndex: li, RunIndex: ri,
		Device: device.OnePlus12R().Name, Arch: cl.Arch, Attempts: 1,
	}
	log := &sig.Log{Events: make([]sig.Event, 0, 4096)}
	cfg := uesim.Config{Op: dep.Op, Field: dep.Field, Cluster: cl, Device: device.OnePlus12R(),
		Duration: runDuration, Seed: rs, Metrics: p.c}
	s := t.start("uesim.RunToContext", o, opIdx)
	err := uesim.RunToContext(p.ctx, cfg, log)
	t.end(s)
	if err != nil {
		return err
	}
	if w.faulted {
		var text bytes.Buffer
		s = t.start("sig.Emitter", o, opIdx)
		em := sig.NewEmitter(&text)
		for _, ev := range log.Events {
			em.Append(ev.At, ev.Msg)
		}
		err = em.Close()
		t.end(s)
		if err != nil {
			return err
		}
		var corrupted bytes.Buffer
		s = t.start("faults.Reader", o, opIdx)
		inj := faults.New(rs+2, *w.rates).WithCollector(p.c)
		_, err = io.Copy(&corrupted, inj.Reader(&text))
		t.end(s)
		if err != nil {
			return err
		}
		p.ps.parseBytes += int64(corrupted.Len())
		var sal *sig.Salvage
		s = t.start("sig.ParseLenientObserved", o, opIdx)
		log, sal, err = sig.ParseLenientObserved(bytes.NewReader(corrupted.Bytes()), p.c)
		t.end(s)
		if err != nil {
			return err
		}
		rec.Salvage = sal
	}
	s = t.start("trace.Extract", o, opIdx)
	tl := trace.Extract(log)
	t.end(s)
	rec.Timeline = tl
	if w.faulted {
		s = t.start("core.StreamDetector", o, opIdx)
		sd := core.NewStreamDetector(core.StreamConfig{Metrics: p.c})
		for _, st := range tl.Steps {
			sd.Push(st)
		}
		rec.Analysis = sd.FinishAnalysis(tl)
		t.end(s)
	} else {
		s = t.start("core.Analyze", o, opIdx)
		rec.Analysis = core.Analyze(tl)
		t.end(s)
	}
	for _, e := range log.Events {
		if mr, ok := e.Msg.(rrc.MeasReport); ok {
			rec.MeasCount += len(mr.Entries)
		}
	}
	p.ps.count(rec.Timeline, rec.Analysis)
	s = t.start("campaign.EncodeRecord", o, opIdx)
	b, err := campaign.EncodeRecord(rec)
	t.end(s)
	if err != nil {
		return err
	}
	p.ps.recordBytes += int64(len(b))
	p.ps.records++
	p.h.Write(b)
	if p.jr == nil {
		return nil
	}
	s = t.start("checkpoint.Append", o, opIdx)
	err = p.jr.Append(fmt.Sprintf("%s/%s/%d/%d/%d", dep.Op.Name, dep.Area.ID, li, ri, p.seed), json.RawMessage(b))
	t.end(s)
	return err
}

func (w *studyWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

// studyDigest is the sha256 of every record's wire encoding in study
// order.
func studyDigest(st *campaign.Study) (string, error) {
	h := sha256.New()
	for _, r := range st.Records("") {
		b, err := campaign.EncodeRecord(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runSeed is campaign's per-run seed for a first attempt, so the
// serial pass simulates exactly the runs the engine simulated; the
// digest check fails if the two ever drift apart.
func runSeed(study int64, area string, li, ri int) int64 {
	h := 0
	for _, c := range area {
		h = h*31 + int(c)
	}
	return study*1_000_003 + int64(li)*7919 + int64(ri)*104729 + int64(h)
}

// runsPerLocation is campaign's per-location run count at a scale.
func runsPerLocation(spec deploy.AreaSpec, scale float64) int {
	return max(1, int(float64(spec.Runs)*scale+0.5))
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
