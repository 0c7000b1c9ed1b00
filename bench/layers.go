package main

import (
	"math"
	"strings"
	"time"
)

// perLayer are the per-layer metrics a traced run prints, with the
// span names (or counters) behind them. A layer a workload never calls
// reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"uesim.ms_per_run", "ms"},
	{"uesim.events_per_run", "count"},
	{"uesim.alloc_kb_per_run", "KB"},
	{"sig.emit_ms_per_run", "ms"},
	{"faults.inject_ms_per_run", "ms"},
	{"faults.injections_per_run", "count"},
	{"sig.parse_ms_per_op", "ms"},
	{"sig.parse_mb_per_s", "MB/s"},
	{"sig.parse_alloc_kb_per_op", "KB"},
	{"sig.lines_per_op", "count"},
	{"sig.kept_ratio", "ratio"},
	{"trace.extract_ms_per_op", "ms"},
	{"trace.steps_per_op", "count"},
	{"trace.extract_alloc_kb_per_op", "KB"},
	{"core.detect_us_per_op", "us"},
	{"core.loops_per_op", "count"},
	{"core.loop_run_ratio", "ratio"},
	{"campaign.encode_us_per_record", "us"},
	{"campaign.record_kb", "KB"},
	{"checkpoint.append_us_per_record", "us"},
	{"campaign.decode_us_per_record", "us"},
	{"checkpoint.open_ms", "ms"},
	{"checkpoint.journal_mb", "MB"},
	{"experiments.render_ms", "ms"},
	{"experiments.table3.ms", "ms"},
	{"experiments.fig6.ms", "ms"},
	{"experiments.fig8.ms", "ms"},
	{"experiments.fig9.ms", "ms"},
	{"experiments.fig10.ms", "ms"},
	{"experiments.fig11.ms", "ms"},
	{"experiments.fig13.ms", "ms"},
	{"experiments.fig16.ms", "ms"},
	{"experiments.table5.ms", "ms"},
	{"experiments.fig17.ms", "ms"},
	{"experiments.fig18.ms", "ms"},
	{"experiments.fig19.ms", "ms"},
	{"deploy.ms_per_area", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"campaign.unattributed_ms_per_run", "ms"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.attributed_share", "ratio"},
	{"bench.op_ms_p50", "ms"},
	{"bench.op_ms_p99", "ms"},
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// layerMetrics derives the per-layer metrics from the traced passes,
// the registry counters and the closed-loop batches of the same run.
func layerMetrics(tr *traced, cl closedLoop, out map[string]metricValue) {
	cost := costs(tr.t.spans)
	ops := float64(tr.stats.ops)
	passes := float64(len(tr.tracedS))
	get := func(names ...string) (self time.Duration, alloc uint64, calls int) {
		for _, n := range names {
			if c := cost[n]; c != nil {
				self += c.self
				alloc += c.alloc
				calls += c.calls
			}
		}
		return self, alloc, calls
	}
	msPerOp := func(names ...string) float64 {
		self, _, _ := get(names...)
		return ratio(self.Seconds()*1e3, ops)
	}
	kbPerOp := func(names ...string) float64 {
		_, alloc, _ := get(names...)
		return ratio(float64(alloc)/kb, ops)
	}
	// perCall is the mean self time of one call, in the given unit.
	perCall := func(unit time.Duration, name string) float64 {
		self, _, calls := get(name)
		return ratio(float64(self)/float64(unit), float64(calls))
	}
	// perPass is the mean inclusive time of a span per traced pass.
	perPass := func(name string) float64 {
		c := cost[name]
		if c == nil {
			return 0
		}
		return ratio(c.total.Seconds()*1e3, passes)
	}
	counter := func(name string) float64 { return float64(tr.reg.Counter(name).Value()) }
	var injections float64
	for _, c := range tr.reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "faults.") {
			injections += float64(c.Value)
		}
	}
	parse := []string{"sig.ParseObserved", "sig.ParseLenientObserved"}
	parseSelf, _, _ := get(parse...)
	kept, dropped := counter("sig.events.kept"), counter("sig.records.dropped")
	keptRatio := 1.0 // nothing was parsed, so nothing was lost
	if kept+dropped > 0 {
		keptRatio = kept / (kept + dropped)
	}

	var passWall, layerSelf time.Duration
	for name, c := range cost {
		if name == "bench.pass" {
			passWall += c.total
		}
		if !isBenchSpan(name) {
			layerSelf += c.self
		}
	}

	v := map[string]float64{
		"uesim.ms_per_run":                 msPerOp("uesim.RunToContext"),
		"uesim.events_per_run":             ratio(counter("uesim.events.emitted"), ops),
		"uesim.alloc_kb_per_run":           kbPerOp("uesim.RunToContext"),
		"sig.emit_ms_per_run":              msPerOp("sig.Emitter"),
		"faults.inject_ms_per_run":         msPerOp("faults.Reader"),
		"faults.injections_per_run":        ratio(injections, ops),
		"sig.parse_ms_per_op":              msPerOp(parse...),
		"sig.parse_mb_per_s":               ratio(float64(tr.stats.parseBytes)/mb, parseSelf.Seconds()),
		"sig.parse_alloc_kb_per_op":        kbPerOp(parse...),
		"sig.lines_per_op":                 ratio(counter("sig.lines.read"), ops),
		"sig.kept_ratio":                   keptRatio,
		"trace.extract_ms_per_op":          msPerOp("trace.Extract"),
		"trace.steps_per_op":               ratio(float64(tr.stats.steps), ops),
		"trace.extract_alloc_kb_per_op":    kbPerOp("trace.Extract"),
		"core.detect_us_per_op":            msPerOp("core.Analyze", "core.StreamDetector") * 1e3,
		"core.loops_per_op":                ratio(float64(tr.stats.loops), ops),
		"core.loop_run_ratio":              ratio(float64(tr.stats.loopOps), ops),
		"campaign.encode_us_per_record":    perCall(time.Microsecond, "campaign.EncodeRecord"),
		"campaign.record_kb":               ratio(float64(tr.stats.recordBytes)/kb, float64(tr.stats.records)),
		"checkpoint.append_us_per_record":  perCall(time.Microsecond, "checkpoint.Append"),
		"campaign.decode_us_per_record":    perCall(time.Microsecond, "campaign.DecodeRecord"),
		"checkpoint.open_ms":               perCall(time.Millisecond, "checkpoint.Open"),
		"checkpoint.journal_mb":            ratio(float64(tr.stats.journalBytes)/mb, passes),
		"experiments.render_ms":            perPass("experiments.render"),
		"deploy.ms_per_area":               perCall(time.Millisecond, "deploy.Build"),
		"runtime.gc_cpu_share":             ratio(cl.gcCPU, cl.totalCPU),
		"runtime.gc_cycles_per_op":         ratio(cl.gcCycles, float64(cl.ops)),
		"campaign.unattributed_ms_per_run": median(cl.cpuMsPerOp) - ratio(passWall.Seconds()*1e3, ops),
		"bench.trace_overhead_share":       ratio(median(tr.tracedS), median(tr.untracedS)) - 1,
		"bench.attributed_share":           ratio(layerSelf.Seconds(), passWall.Seconds()),
		"bench.op_ms_p50":                  quantile(tr.opMs, 0.5),
		"bench.op_ms_p99":                  quantile(tr.opMs, 0.99),
	}
	for _, id := range replayIDs {
		v["experiments."+id+".ms"] = perPass("experiments." + id)
	}
	for _, m := range perLayer {
		out[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	r := a / b
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return 0
	}
	return r
}
