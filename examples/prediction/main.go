// Prediction: the §6 pipeline through the public API — build a dense
// spatial training set around a looping location by brute measurement,
// fit the logistic/power model P = Σ uᵢ·pᵢ, and use it to predict the
// loop probability at unseen locations from radio features alone.
package main

import (
	"fmt"
	"math"
	"time"

	"github.com/mssn/loopscope"
	"github.com/mssn/loopscope/internal/units"
)

func main() {
	op := loopscope.OperatorByName("OPT")
	area := loopscope.Areas()[0]
	dep := loopscope.BuildDeployment(op, area, 43)

	// The training site: an S1E3 location (co-channel SCell pair with a
	// small RSRP gap).
	var site *loopscope.Cluster
	for _, cl := range dep.Clusters {
		if cl.Arch.String() == "s1e3" {
			site = cl
			break
		}
	}
	if site == nil {
		fmt.Println("no S1E3 site at this seed")
		return
	}

	// Dense spatial measurement: short stationary runs on a 5×5 grid
	// around the site; the measured loop frequency is the ground truth,
	// and the co-channel pair's median RSRP gap is the model feature.
	pair := site.CellsOnChannel(387410)
	fmt.Println("training on a 5x5 grid around", site.Loc)
	var samples []loopscope.TrainingSample
	const runs = 4
	gi := 0
	for dx := -2; dx <= 2; dx++ {
		for dy := -2; dy <= 2; dy++ {
			gi++
			p := site.Loc.Add(float64(dx)*50, float64(dy)*50)
			loops := 0
			for r := 0; r < runs; r++ {
				capture := loopscope.SimulateRun(loopscope.RunConfig{
					Op: op, Field: dep.Field, Cluster: site, Loc: p,
					Duration: 3 * time.Minute, Seed: int64(gi*97 + r),
				})
				a := loopscope.Analyze(loopscope.ExtractTimeline(capture))
				if _, st := a.Primary(); st == loopscope.S1E3 {
					loops++
				}
			}
			gap := dep.Field.Median(pair[0], p).RSRPDBm.Sub(dep.Field.Median(pair[1], p).RSRPDBm)
			samples = append(samples, loopscope.TrainingSample{
				Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: gap}},
				Truth:  float64(loops) / runs,
			})
		}
	}

	model := loopscope.FitModel(samples, loopscope.FeatureSCellGap)
	fmt.Println("fitted:", model)
	fmt.Println("\nconditional loop probability by SCell RSRP gap:")
	for gap := units.DB(0); gap <= 12; gap += 2 {
		fmt.Printf("  gap %4.1f dB → p = %.2f\n", gap,
			model.CondLoopProb(loopscope.Combo{SCellGapDB: gap}))
	}

	// Predict at every *other* S1E3/clean location of the area and
	// compare with a few measured runs.
	fmt.Println("\npredicted vs measured at unseen locations:")
	var worst float64
	for i, cl := range dep.Clusters {
		if cl == site || i > 11 {
			continue
		}
		p2 := cl.CellsOnChannel(387410)
		gap := dep.Field.Median(p2[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(p2[1], cl.Loc).RSRPDBm)
		pred := model.Predict([]loopscope.Combo{{PCellGapDB: 12, SCellGapDB: gap}})
		loops := 0
		for r := 0; r < runs; r++ {
			capture := loopscope.SimulateRun(loopscope.RunConfig{
				Op: op, Field: dep.Field, Cluster: cl,
				Duration: 3 * time.Minute, Seed: int64(9000 + i*31 + r),
			})
			if _, st := loopscope.Analyze(loopscope.ExtractTimeline(capture)).Primary(); st == loopscope.S1E3 {
				loops++
			}
		}
		truth := float64(loops) / runs
		worst = math.Max(worst, math.Abs(pred-truth))
		fmt.Printf("  loc %2d (%-11s gap %5.1f dB): predicted %.2f, measured %.2f\n",
			i, cl.Arch, gap, pred, truth)
	}
	fmt.Printf("\nworst absolute error: %.2f (paper: most locations within ±0.25)\n", worst)
}
