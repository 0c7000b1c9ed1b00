// Quickstart: simulate one 5-minute measurement run at a location with
// a persistent S1E3 loop (the paper's motivating P16 example), then run
// the full analysis pipeline — parse the emitted signaling log, extract
// the serving-cell-set timeline, detect the ON-OFF loop, classify its
// cause, and model the download-speed impact.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/mssn/loopscope"
)

func main() {
	// 1. Build the SA operator's showcase area deployment and pick an
	// S1E3-prone location.
	op := loopscope.OperatorByName("OPT")
	area := loopscope.Areas()[0] // A1
	dep := loopscope.BuildDeployment(op, area, 43)
	cluster := dep.Clusters[0]
	for _, cl := range dep.Clusters {
		if cl.Arch.String() == "s1e3" {
			cluster = cl
			break
		}
	}
	fmt.Printf("location %v in %s (%s, %s)\n", cluster.Loc, area.ID, op.FullName, op.Mode)

	// 2. Simulate a stationary bulk-download run. The result is an
	// NSG-style signaling log.
	capture := loopscope.SimulateRun(loopscope.RunConfig{
		Op: op, Field: dep.Field, Cluster: cluster,
		Duration: loopscope.DefaultRunDuration, Seed: 7,
	})

	// 3. The analysis pipeline never touches simulator internals: it
	// re-parses the textual log, exactly like the real methodology.
	parsed, err := loopscope.ParseLog(strings.NewReader(capture.String()), nil)
	if err != nil {
		log.Fatal(err)
	}
	tl := loopscope.ExtractTimeline(parsed)
	fmt.Printf("captured %d RRC events, %d serving-cell-set changes\n\n", parsed.Len(), len(tl.Steps))

	// 4. Detect and classify.
	analysis := loopscope.Analyze(tl)
	if !analysis.HasLoop() {
		fmt.Println("no loop this run — try another seed")
		return
	}
	loop, subtype := analysis.Primary()
	fmt.Printf("ON-OFF loop detected: type %v (%v), %v\n", subtype, subtype.Type(), loop.Form)
	fmt.Printf("cycle (%d serving cell sets, repeated %d times):\n", loop.CycleLen, loop.Reps)
	for _, key := range loop.CycleKeys() {
		fmt.Println("  ", key)
	}

	// 5. Impact metrics (Fig. 10): cycle and OFF durations.
	var on, off time.Duration
	cycles := loop.Cycles()
	for _, c := range cycles {
		on += c.On
		off += c.Off
	}
	n := time.Duration(len(cycles))
	fmt.Printf("\nper-cycle impact: ON %v, OFF %v (ratio %.0f%%)\n",
		(on / n).Round(100*time.Millisecond), (off / n).Round(100*time.Millisecond),
		100*float64(off)/float64(on+off))

	// 6. Throughput impact (Fig. 1b): speed collapses to zero while the
	// connection is stuck in IDLE.
	speeds := loopscope.GenerateThroughput(tl, op, 8)
	var bar strings.Builder
	for i, s := range speeds {
		if i%5 != 0 {
			continue
		}
		switch {
		case s.Mbps < 1:
			bar.WriteByte('_')
		case s.Mbps < 100:
			bar.WriteByte('o')
		default:
			bar.WriteByte('#')
		}
	}
	fmt.Printf("\ndownload speed over time (#=fast o=slow _=stalled, 5s buckets):\n%s\n", bar.String())
}
