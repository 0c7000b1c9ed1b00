// Fleetstudy: the §4.4 cross-device experiment. Six phone models run at
// the same loop-prone locations on all three operators; loops over 5G
// NSA appear on (almost) every model, while loops over 5G SA are
// device-dependent — the capability profile decides which serving cells
// a model uses, and only bundles containing the problematic n25 SCells
// can loop.
package main

import (
	"fmt"
	"math"
	"time"

	"github.com/mssn/loopscope"
)

func main() {
	const runs = 5
	devices := loopscope.Devices()

	for _, opName := range []string{"OPT", "OPA", "OPV"} {
		op := loopscope.OperatorByName(opName)
		area := loopscope.Areas()[firstAreaOf(opName)]
		dep := loopscope.BuildDeployment(op, area, 43)

		// Choose a location whose archetype loops on the reference
		// phone (the OnePlus 12R of the study); for SA pick the most
		// loop-prone S1E3 site (smallest co-channel gap).
		cluster := dep.Clusters[0]
		bestGap := math.Inf(1)
		for _, cl := range dep.Clusters {
			switch cl.Arch.String() {
			case "s1e3":
				pair := cl.CellsOnChannel(387410)
				if len(pair) < 2 {
					continue
				}
				gap := dep.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
				if gap < 0 {
					gap = -gap
				}
				if gap < bestGap {
					bestGap, cluster = gap, cl
				}
			case "n2e1":
				if math.IsInf(bestGap, 1) {
					cluster = cl
				}
			}
		}
		fmt.Printf("%s (%s, %s) at %v:\n", op.Name, op.FullName, op.Mode, cluster.Loc)

		for _, dev := range devices {
			loops := 0
			var cellsUsed int
			for r := 0; r < runs; r++ {
				capture := loopscope.SimulateRun(loopscope.RunConfig{
					Op: op, Field: dep.Field, Cluster: cluster, Device: dev,
					Duration: 4 * time.Minute, Seed: int64(100*r + len(dev.Name)),
				})
				tl := loopscope.ExtractTimeline(capture)
				if loopscope.Analyze(tl).HasLoop() {
					loops++
				}
				for _, s := range tl.Steps {
					if n := len(s.Set.Cells()); n > cellsUsed {
						cellsUsed = n
					}
				}
			}
			fmt.Printf("  %-15s loops in %d/%d runs (max serving cells: %d)\n",
				dev.Name, loops, runs, cellsUsed)
		}
		fmt.Println()
	}
	fmt.Println("F5/F6: NSA loops are device-independent; SA loops need the")
	fmt.Println("problematic 2x2 n25 SCells that only the OnePlus 12R aggregates.")
}

// firstAreaOf indexes the first area of an operator in Areas().
func firstAreaOf(op string) int {
	for i, a := range loopscope.Areas() {
		if a.Operator == op {
			return i
		}
	}
	return 0
}
