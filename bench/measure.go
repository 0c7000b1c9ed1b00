package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/mssn/loopscope/internal/obs"
)

const (
	// Set-up runs at least minSetupReps times and for at least
	// minSetupTime; setup_s is the median.
	minSetupReps = 3
	minSetupTime = 500 * time.Millisecond
	// minBatches is the fewest timed batches a full-size run measures,
	// however short -seconds is.
	minBatches = 3
	// minOpSamples is the fewest traced ops a full-size traced run
	// records, so that bench.op_ms_p99 has ten samples beyond it.
	minOpSamples = 1000
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line printed on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run measured; -out appends it as a line.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Digest identifies the outputs of batch 0; it depends only on the
	// seed and the workload size, so a change that alters no output
	// leaves it unchanged.
	Digest  string `json:"digest"`
	Batches int    `json:"batches"`
	// Spread holds the batch-level summary behind each end-to-end metric,
	// before the time metrics are divided by Slowdown.
	Spread map[string]summary `json:"spread"`
	// Slowdown is how much more CPU time than on the reference host the
	// run's Calibrations took (see calib.go), and StolenShare the share
	// of the timed batches' wall time the host stole; wall times exclude
	// it.
	Calibrations int     `json:"calibrations"`
	Slowdown     float64 `json:"slowdown"`
	StolenShare  float64 `json:"stolen_share"`
	// OpSamples is the number of traced ops behind bench.op_ms_*, and
	// TailPercentile the highest percentile they support.
	OpSamples      int     `json:"op_samples,omitempty"`
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	Result         result  `json:"result"`
}

// endToEnd are the end-to-end metrics, printed by an untraced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"rss_mb", "MB"},
}

// closedLoop is what the timed batches of one run measured.
type closedLoop struct {
	opsPerS, cpuMsPerOp, allocKB, rssMB []float64
	ops                                 int
	wall, stolen                        time.Duration
	gcCycles, gcCPU, totalCPU           float64
}

// measure runs set-up, the reference check, the warm-up batch and the
// timed batches with calibrations between them; a traced run then
// alternates traced and untraced serial passes.
func measure(ctx context.Context, w workload, rc runConfig) (*report, error) {
	rep := &report{Workload: rc.workload, Seed: rc.seed, Traced: rc.traced}
	var setups []float64
	for start := time.Now(); len(setups) < minSetupReps || time.Since(start) < minSetupTime; {
		s0, err := stolenTime()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0)
		s1, err := stolenTime()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (wall - (s1 - s0)).Seconds())
	}
	if err := w.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := w.batch(ctx, 0); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	c, err := w.check(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up check: %w", err)
	}
	rep.Digest = c.digest
	attempted, failed := c.ops, min(c.failed, c.ops)

	budget := time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		budget /= 2
	}
	var cl closedLoop
	cals := []calibration{calibrate(rc.size.workers)}
	var sinceCal time.Duration
	var walls []float64
	start := time.Now()
	for b := 1; ; b++ {
		// Stop where the next batch would end nearer past the budget than
		// short of it, so a run of long batches keeps to -seconds.
		halfBatch := time.Duration(median(walls) / 2 * float64(time.Second))
		if rc.smoke && b > 1 || !rc.smoke && b > minBatches && time.Since(start)+halfBatch >= budget {
			break
		}
		u0, err := readUsage()
		if err != nil {
			return nil, err
		}
		if err := w.batch(ctx, b); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		u1, err := readUsage()
		if err != nil {
			return nil, err
		}
		c, err := w.check(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("batch %d check: %w", b, err)
		}
		attempted += c.ops
		failed += min(c.failed, c.ops)
		ops, wall, stolen := float64(c.ops), u1.wall.Sub(u0.wall), u1.stolen-u0.stolen
		walls = append(walls, wall.Seconds())
		cl.wall += wall
		cl.stolen += stolen
		cl.ops += c.ops
		cl.opsPerS = append(cl.opsPerS, ops/(wall-stolen).Seconds())
		cl.cpuMsPerOp = append(cl.cpuMsPerOp, float64(u1.cpu-u0.cpu)/1e6/ops)
		cl.allocKB = append(cl.allocKB, (u1.allocs-u0.allocs)/kb/ops)
		cl.rssMB = append(cl.rssMB, u1.rss/mb)
		cl.gcCycles += u1.gcCycles - u0.gcCycles
		cl.gcCPU += u1.gcCPU - u0.gcCPU
		cl.totalCPU += u1.totalCPU - u0.totalCPU
		if sinceCal += wall; sinceCal >= calibEvery {
			cals = append(cals, calibrate(rc.size.workers))
			sinceCal = 0
		}
	}
	rep.Batches = len(cl.opsPerS)
	for _, c := range cals {
		if c.sum != cals[0].sum {
			return nil, fmt.Errorf("calibration computed %d, then %d", cals[0].sum, c.sum)
		}
	}
	slow := slowdown(cals)
	rep.Calibrations, rep.Slowdown = len(cals), slow
	rep.StolenShare = ratio(cl.stolen.Seconds(), cl.wall.Seconds())
	rep.Spread = map[string]summary{
		"setup_s":         summarize(setups),
		"ops_per_s":       summarize(cl.opsPerS),
		"cpu_ms_per_op":   summarize(cl.cpuMsPerOp),
		"alloc_kb_per_op": summarize(cl.allocKB),
		"rss_mb":          summarize(cl.rssMB),
	}
	metrics := map[string]metricValue{}
	if rc.traced {
		tr, err := tracedPhase(ctx, w, budget, rc.smoke)
		if err != nil {
			return nil, err
		}
		attempted += tr.untraced.ops + tr.stats.ops
		failed += tr.untraced.failed + tr.stats.failed
		rep.OpSamples = len(tr.opMs)
		rep.TailPercentile = tailPercentile(len(tr.opMs))
		layerMetrics(tr, cl, metrics)
		if rc.spans != "" {
			if err := tr.t.writeFile(rc.spans); err != nil {
				return nil, err
			}
		}
	} else {
		v := map[string]float64{
			"setup_s":         median(setups) / slow,
			"ops_per_s":       median(cl.opsPerS) * slow,
			"cpu_ms_per_op":   median(cl.cpuMsPerOp) / slow,
			"alloc_kb_per_op": median(cl.allocKB),
			"rss_mb":          median(cl.rssMB),
		}
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
		}
	}
	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	return rep, nil
}

// traced is what the serial phase of a traced run recorded.
type traced struct {
	t                  *tracer
	reg                *obs.Registry
	stats              passStats // of the traced passes
	untraced           passStats // of the untraced passes
	tracedS, untracedS []float64 // wall time of each pass
	opMs               []float64 // duration of every traced op
}

// tracedPhase alternates traced and untraced serial passes until the
// budget is spent, at least one of each has run and (full size) enough
// ops were traced for a 99th percentile.
func tracedPhase(ctx context.Context, w workload, budget time.Duration, smoke bool) (*traced, error) {
	tr := &traced{t: newTracer(), reg: obs.NewRegistry()}
	start := time.Now()
	for len(tr.tracedS) == 0 || len(tr.untracedS) == 0 ||
		!smoke && (time.Since(start) < budget || countOps(tr.t.spans) < minOpSamples) {
		if len(tr.tracedS) <= len(tr.untracedS) {
			t0 := time.Now()
			ps, err := w.pass(ctx, tr.t, tr.reg)
			if err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
			tr.tracedS = append(tr.tracedS, time.Since(t0).Seconds())
			tr.stats.add(ps)
			continue
		}
		t0 := time.Now()
		ps, err := w.pass(ctx, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		tr.untracedS = append(tr.untracedS, time.Since(t0).Seconds())
		tr.untraced.add(ps)
	}
	for _, s := range tr.t.spans {
		if s.Name == "bench.op" {
			tr.opMs = append(tr.opMs, float64(s.End-s.Start)/1e6)
		}
	}
	return tr, nil
}

func countOps(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Name == "bench.op" {
			n++
		}
	}
	return n
}

// printSummary writes a human-readable account of the run.
func (r *report) printSummary(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "loopbench %s seed=%d (%s): %d timed batches, %d/%d ops failed, digest %.16s\n",
		r.Workload, r.Seed, mode, r.Batches, r.Result.Failed, r.Result.Attempted, r.Digest)
	fmt.Fprintf(w, "  host slowdown ×%.3f over %d calibrations, %.1f%% of batch time stolen (time metrics are divided by the slowdown; the batch quartiles are not)\n",
		r.Slowdown, r.Calibrations, 100*r.StolenShare)
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.4f %s", n, m.Value, m.Unit)
		if s, ok := r.Spread[n]; ok && !r.Traced {
			line += fmt.Sprintf("   (median %.4g, q1 %.4g, q3 %.4g, n=%d)", s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if r.OpSamples > 0 {
		fmt.Fprintf(w, "  %d traced ops: highest percentile with 10 samples beyond it is p%g\n", r.OpSamples, r.TailPercentile)
	}
}
