package experiments

import (
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/radio"
	"github.com/mssn/loopscope/internal/uesim"
	"github.com/mssn/loopscope/internal/units"
)

// StickinessAblation demonstrates the design claim in DESIGN.md's
// Calibration section: persistent loops require the UE to re-anchor on
// the same PCell after every release. With stored-information camping
// stickiness disabled, re-establishment diffuses across near-equal
// anchors and persistent loops degrade into semi-persistent ones or
// escape detection entirely.
func StickinessAblation(c *Context) *Result {
	r := &Result{ID: "ablation-sticky", Title: "Ablation — camping stickiness vs loop persistence"}
	op := policy.OPT()

	// A site with two *competitive* anchor groups (2.5 dB apart on the
	// same top-priority channel), each with its own SCell partner set,
	// plus the loop-prone co-channel 387410 pair. At the real study
	// sites one anchor dominates outright; here re-selection is a coin
	// toss unless camping stickiness pins it.
	field := radio.NewField(c.Opts.Seed + 7331)
	loc := geo.P(0, 0)
	towerA, towerB := geo.P(-200, 150), geo.P(210, -160)
	mk := func(pci, ch int, pos geo.Point, target units.DBm) *cell.Cell {
		cc := deploy.NewCell(band.RATNR, pci, ch, pos, 4)
		if ch == 387410 || ch == 398410 {
			cc.MIMOLayers = 2
		}
		deploy.Calibrate(field, cc, loc, target)
		return cc
	}
	cl := &deploy.Cluster{Loc: loc, Cells: []*cell.Cell{
		mk(100, 521310, towerA, -83),
		mk(100, 501390, towerA, -83.5),
		mk(100, 398410, towerA, -83),
		mk(100, 387410, towerA, -84), // serving partner of anchor 100
		mk(200, 521310, towerB, -85.5),
		mk(200, 501390, towerB, -96),
		mk(200, 398410, towerB, -97),
		mk(200, 387410, towerB, -86.5), // the co-channel candidate
	}}

	const runs = 12
	var jobs []campaign.Job
	for _, disable := range []bool{false, true} {
		for i := 0; i < runs; i++ {
			jobs = append(jobs, campaign.Job{Config: uesim.Config{
				Op: op, Field: field, Cluster: cl,
				Duration:            4 * time.Minute,
				Seed:                c.Opts.Seed*23 + int64(i),
				NoCampingStickiness: disable,
			}})
		}
	}
	recs := c.run("ablation-sticky", jobs)
	arm := func(recs []*campaign.Record) (persistent, semi, none int) {
		for _, rec := range recs {
			if !rec.HasLoop() {
				none++
				continue
			}
			if rec.Form() == core.FormPersistent {
				persistent++
			} else {
				semi++
			}
		}
		return
	}
	p1, s1, n1 := arm(recs[:runs])
	p2, s2, n2 := arm(recs[runs:])
	r.addf("%-22s %10s %10s %10s", "", "II-P", "II-SP", "no loop")
	r.addf("%-22s %10d %10d %10d", "with stickiness", p1, s1, n1)
	r.addf("%-22s %10d %10d %10d", "without stickiness", p2, s2, n2)
	r.addf("persistence needs deterministic re-anchoring: remove the")
	r.addf("camping bonus and the same radio environment produces fewer")
	r.addf("persistent loops at the same site.")
	r.set("persistent_with", float64(p1))
	r.set("persistent_without", float64(p2))
	r.set("semi_with", float64(s1))
	r.set("semi_without", float64(s2))
	return r
}
