package experiments

import (
	"strings"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/viz"
)

// robustnessRates is the corruption sweep: per-line fault probability
// of the full capture-impairment profile (line faults plus clock jumps,
// reordering, restarts and truncation).
var robustnessRates = []struct {
	label string
	rate  float64
}{
	{"0%", 0},
	{"2%", 0.02},
	{"5%", 0.05},
	{"10%", 0.10},
	{"20%", 0.20},
}

// Robustness measures how loop detection degrades as captures rot:
// clean runs define the ground truth (loop / no loop per run), then the
// same captures are corrupted at increasing fault rates, salvaged with
// lenient parsing and re-analyzed. Recall and precision against the
// clean verdicts quantify graceful degradation on the paper's detection
// task.
func Robustness(c *Context) *Result {
	r := &Result{ID: "robustness", Title: "Loop detection under capture corruption"}

	op := policy.OPT()
	spec := deploy.AreasFor("OPT")[0] // A1, the showcase area
	dep := deploy.Build(op, spec, c.Opts.Seed+1)

	// A mixed site panel: loop-prone S1E3 clusters for recall, the
	// rest for precision (false loops conjured out of corruption).
	var clusters []*deploy.Cluster
	if sc := campaign.FindShowcase(dep); sc != nil {
		clusters = append(clusters, sc)
	}
	for _, cl := range dep.Clusters {
		if len(clusters) >= 6 {
			break
		}
		dup := false
		for _, have := range clusters {
			if have == cl {
				dup = true
			}
		}
		if !dup {
			clusters = append(clusters, cl)
		}
	}

	// Clean pass: capture text + ground-truth verdict per run.
	type run struct {
		text  string
		truth bool
		seed  int64
	}
	var runs []run
	for ci, cl := range clusters {
		for ri := 0; ri < 2; ri++ {
			seed := c.Opts.Seed + int64(ci)*101 + int64(ri)*13 + 7
			log := uesim.Run(uesim.Config{
				Op: op, Field: dep.Field, Cluster: cl,
				Duration: c.Opts.Duration, Seed: seed,
			})
			truth := core.Analyze(trace.FromLog(log)).HasLoop()
			runs = append(runs, run{text: log.String(), truth: truth, seed: seed})
		}
	}
	truthPos := 0
	for _, ru := range runs {
		if ru.truth {
			truthPos++
		}
	}
	r.addf("%d runs over %d sites, %d with a ground-truth loop", len(runs), len(clusters), truthPos)
	r.addf("%-6s %8s %10s %10s %10s", "rate", "kept", "recall", "precision", "accuracy")

	for _, rr := range robustnessRates {
		tp, fp, fn, agree := 0, 0, 0, 0
		keptEvents, totalEvents := 0, 0
		for _, ru := range runs {
			inj := faults.New(ru.seed*31+int64(rr.rate*1000), faults.Profile(rr.rate))
			log, sal, err := sig.ParseLenientObserved(strings.NewReader(inj.Corrupt(ru.text)), nil)
			if err != nil {
				continue // unreachable for string input
			}
			keptEvents += sal.EventsKept
			totalEvents += sal.EventsKept + sal.RecordsDropped
			detected := core.Analyze(trace.FromLog(log)).HasLoop()
			switch {
			case detected && ru.truth:
				tp++
			case detected && !ru.truth:
				fp++
			case !detected && ru.truth:
				fn++
			}
			if detected == ru.truth {
				agree++
			}
		}
		recall, precision := 1.0, 1.0
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}
		if tp+fp > 0 {
			precision = float64(tp) / float64(tp+fp)
		}
		kept := 1.0
		if totalEvents > 0 {
			kept = float64(keptEvents) / float64(totalEvents)
		}
		accuracy := float64(agree) / float64(len(runs))
		r.addf("%-6s %8s %10s %10s %10s", rr.label, pct(kept), pct(recall), pct(precision), pct(accuracy))
		key := rr.label[:len(rr.label)-1] // "5%" → "5"
		r.set("recall_"+key+"pct", recall)
		r.set("precision_"+key+"pct", precision)
		r.set("kept_"+key+"pct", kept)
		r.set("accuracy_"+key+"pct", accuracy)
	}
	r.addf("detection accuracy vs corruption rate:")
	for _, rr := range robustnessRates {
		key := rr.label[:len(rr.label)-1]
		v := r.Values["accuracy_"+key+"pct"]
		r.addf("  %s", viz.Bar(rr.label, v, 1, 30, pct(v)))
	}
	return r
}
