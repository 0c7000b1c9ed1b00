package experiments

import (
	"time"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/uesim"
)

// AppsExperiment reproduces the §7 application observation: the ON-OFF
// loop occurs regardless of the application type (every continuous
// workload keeps the RRC connection demanded), while the user-facing
// damage differs — a buffered video hides short OFF periods that stall
// a live stream outright.
func AppsExperiment(c *Context) *Result {
	_, dep, cl := c.Dense()
	r := &Result{ID: "apps", Title: "§7 — loops across application workloads"}
	op := policy.OPT()
	workloads := []throughput.Workload{
		throughput.WorkloadBulkDownload,
		throughput.WorkloadFileUpload,
		throughput.WorkloadVideoStream,
		throughput.WorkloadLiveStream,
	}
	const runs = 6
	// The RRC session is identical across workloads — all of them
	// demand continuous transfer — so every workload renders from the
	// same runs.
	jobs := make([]campaign.Job, runs)
	for i := range jobs {
		jobs[i] = campaign.Job{Config: uesim.Config{
			Op: op, Field: dep.Field, Cluster: cl,
			Duration: 4 * time.Minute,
			Seed:     c.Opts.Seed*17 + int64(i),
		}}
	}
	recs := c.run("apps", jobs)
	r.addf("%-14s %10s %14s %12s", "workload", "loop runs", "median Mbps", "stalled")
	for _, w := range workloads {
		loops := 0
		var medSum float64
		var stall time.Duration
		for i, rec := range recs {
			if rec.HasLoop() {
				loops++
			}
			samples := throughput.GenerateWorkload(rec.Timeline, op, int64(i), w)
			var sum float64
			for _, s := range samples {
				sum += s.Mbps
			}
			medSum += sum / float64(len(samples))
			stall += throughput.StallSeconds(samples, w)
		}
		r.addf("%-14s %6d/%-3d %11.1f %12s", w, loops, runs,
			medSum/runs, (stall / runs).Round(time.Second))
		r.set("loops_"+w.String(), float64(loops))
		r.set("stall_s_"+w.String(), (stall / runs).Seconds())
	}
	r.addf("loops occur in the same runs for every workload (same RRC session);")
	r.addf("the buffered video rides out OFF periods that stall the live stream.")
	return r
}
