// Walking: the §7 mobility experiment through the public API. A walker
// crosses a location with a known persistent S1E3 loop; the loop's
// releases cluster where the two co-channel SCells' RSRP surfaces cross
// and vanish once the walker leaves the crossing zone.
package main

import (
	"fmt"
	"time"

	"github.com/mssn/loopscope"
)

func main() {
	op := loopscope.OperatorByName("OPT")
	dep := loopscope.BuildDeployment(op, loopscope.Areas()[0], 43)

	// Find the most loop-prone S1E3 site (smallest co-channel gap).
	var site *loopscope.Cluster
	bestGap := 1e9
	for _, cl := range dep.Clusters {
		if cl.Arch.String() != "s1e3" {
			continue
		}
		pair := cl.CellsOnChannel(387410)
		gap := dep.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(dep.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap, site = gap, cl
		}
	}
	if site == nil {
		fmt.Println("no S1E3 site at this seed")
		return
	}
	pair := site.CellsOnChannel(387410)
	fmt.Printf("walking 600m through the S1E3 site at %v (pair gap %.1f dB)\n\n", site.Loc, bestGap)

	// One 10-minute walk at 1 m/s across the site.
	start := site.Loc.Add(-300, 0)
	end := site.Loc.Add(300, 0)
	capture := loopscope.SimulateRun(loopscope.RunConfig{
		Op: op, Field: dep.Field, Cluster: site,
		Loc:          start,
		Path:         []loopscope.Point{end},
		WalkSpeedMps: 1.0,
		Duration:     10 * time.Minute,
		Seed:         11,
	})
	tl := loopscope.ExtractTimeline(capture)

	// Report each 5G release with the walker's position and the local
	// gap between the two co-channel cells at that moment.
	fmt.Println("5G releases along the walk:")
	releases := 0
	for _, s := range tl.Steps {
		if s.Evidence.Kind.String() == "none" {
			continue
		}
		releases++
		progress := s.At.Seconds() * 1.0 // meters walked
		pos := start.Add(progress, 0)
		gap := dep.Field.Median(pair[0], pos).RSRPDBm.Sub(dep.Field.Median(pair[1], pos).RSRPDBm).Float()
		fmt.Printf("  t=%-8v %+6.0fm from site  local pair gap %5.1f dB  (%s)\n",
			s.At.Round(time.Second), pos.X-site.Loc.X, gap, s.Evidence.Kind)
	}
	if releases == 0 {
		fmt.Println("  none this walk — try another seed")
		return
	}
	fmt.Printf("\n%d releases; they concentrate where the pair gap is small —\n", releases)
	fmt.Println("the paper's spatial-correlation observation (§6/§7).")
}
