// Package deploy builds the synthetic radio deployments of the study's
// 11 test areas (A1–A5 for OPT, A6–A8 for OPA, A9–A11 for OPV).
//
// Each test location gets a local cluster of cells whose *median* RSRP
// at the location is calibrated to one of a handful of radio archetypes
// (e.g. "two co-channel n25 SCells with close medians", the structure
// behind S1E3 loops). Per-area archetype weights encode the paper's
// per-area heterogeneity (Fig. 9, Fig. 16); everything downstream — the
// RRC engine, the loop dynamics, the prediction features — emerges
// mechanistically from the calibrated radio field plus the operator
// policies. This is the documented substitution for the authors' real
// drive-test deployments (see DESIGN.md).
package deploy

import (
	"fmt"
	"math/rand"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/radio"
	"github.com/mssn/loopscope/internal/units"
)

// Archetype labels the radio structure calibrated at a location. It is
// a *generation* label only: the run engine never reads it, so loops
// still have to emerge from the simulated RRC dynamics.
type Archetype uint8

// Location radio archetypes.
const (
	// ArchClean has comfortable margins everywhere: no loop expected.
	ArchClean Archetype = iota
	// ArchBenignSwap has a genuinely stronger co-channel candidate: one
	// successful SCell modification, then stability (feeds the
	// successful-modification denominator of Table 5).
	ArchBenignSwap
	// ArchS1E1 plants a configured SCell below the measurability floor.
	ArchS1E1
	// ArchS1E2 plants a configured SCell weak enough for terrible RSRQ.
	ArchS1E2
	// ArchS1E3 plants two co-channel SCells with close medians, so A3
	// fires on fading and the modification keeps failing.
	ArchS1E3
	// ArchN1E1 makes the blind-redirect target weak enough for RLF.
	ArchN1E1
	// ArchN1E2 makes the blind-redirect target weak enough that the
	// handover itself fails.
	ArchN1E2
	// ArchN2E1 gives the "5G-disabled" channel a persistent RSRQ edge,
	// producing the handover ping-pong.
	ArchN2E1
	// ArchN2E2 plants two co-channel NR cells with close medians, so
	// PSCell changes keep failing (SCG failure handling).
	ArchN2E2
)

// String names the archetype.
func (a Archetype) String() string {
	names := [...]string{"clean", "benign-swap", "s1e1", "s1e2", "s1e3",
		"n1e1", "n1e2", "n2e1", "n2e2"}
	if int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Archetype(%d)", uint8(a))
}

// Weight pairs an archetype with its sampling weight within an area.
type Weight struct {
	Arch Archetype
	W    float64
}

// AreaSpec describes one test area of Table 3 / Figure 5.
type AreaSpec struct {
	ID        string // "A1".."A11"
	City      string // "C1" (West Lafayette) or "C2" (Lafayette)
	Operator  string // "OPT", "OPA", "OPV"
	SizeKm2   float64
	Locations int // sparse test locations (Table 3: 46/28/28 total)
	Runs      int // stationary runs per location
	Weights   []Weight
}

// Areas returns the 11 areas with archetype weights calibrated to the
// paper's per-area loop mixes (Fig. 9, Fig. 16): S1E3 dominates OPT
// areas except the coverage-poor A2 (S1E2-heavy); N2 dominates the NSA
// operators with N2E2 concentrated in A8 and A11; A7 has the most
// loop-free locations; N1E2 never appears on OPV.
func Areas() []AreaSpec {
	return []AreaSpec{
		{ID: "A1", City: "C1", Operator: "OPT", SizeKm2: 2.9, Locations: 25, Runs: 10, Weights: []Weight{
			{ArchS1E3, 0.58}, {ArchS1E2, 0.12}, {ArchS1E1, 0.10}, {ArchBenignSwap, 0.08}, {ArchClean, 0.12}}},
		{ID: "A2", City: "C1", Operator: "OPT", SizeKm2: 1.6, Locations: 6, Runs: 8, Weights: []Weight{
			{ArchS1E3, 0.18}, {ArchS1E2, 0.50}, {ArchS1E1, 0.04}, {ArchBenignSwap, 0.06}, {ArchClean, 0.22}}},
		{ID: "A3", City: "C1", Operator: "OPT", SizeKm2: 1.8, Locations: 5, Runs: 8, Weights: []Weight{
			{ArchS1E3, 0.52}, {ArchS1E2, 0.10}, {ArchS1E1, 0.08}, {ArchBenignSwap, 0.10}, {ArchClean, 0.20}}},
		{ID: "A4", City: "C2", Operator: "OPT", SizeKm2: 1.9, Locations: 5, Runs: 8, Weights: []Weight{
			{ArchS1E3, 0.54}, {ArchS1E2, 0.10}, {ArchS1E1, 0.10}, {ArchBenignSwap, 0.08}, {ArchClean, 0.18}}},
		{ID: "A5", City: "C2", Operator: "OPT", SizeKm2: 1.5, Locations: 5, Runs: 8, Weights: []Weight{
			{ArchS1E3, 0.50}, {ArchS1E2, 0.10}, {ArchS1E1, 0.10}, {ArchBenignSwap, 0.10}, {ArchClean, 0.20}}},

		{ID: "A6", City: "C1", Operator: "OPA", SizeKm2: 1.6, Locations: 10, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.44}, {ArchN2E2, 0.14}, {ArchN1E1, 0.08}, {ArchN1E2, 0.04}, {ArchClean, 0.30}}},
		{ID: "A7", City: "C1", Operator: "OPA", SizeKm2: 1.4, Locations: 9, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.26}, {ArchN2E2, 0.12}, {ArchN1E1, 0.05}, {ArchN1E2, 0.11}, {ArchClean, 0.46}}},
		{ID: "A8", City: "C2", Operator: "OPA", SizeKm2: 1.4, Locations: 9, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.16}, {ArchN2E2, 0.46}, {ArchN1E1, 0.04}, {ArchN1E2, 0.08}, {ArchClean, 0.26}}},

		{ID: "A9", City: "C1", Operator: "OPV", SizeKm2: 2.0, Locations: 10, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.50}, {ArchN2E2, 0.15}, {ArchN1E1, 0.03}, {ArchClean, 0.32}}},
		{ID: "A10", City: "C1", Operator: "OPV", SizeKm2: 1.6, Locations: 9, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.46}, {ArchN2E2, 0.19}, {ArchN1E1, 0.02}, {ArchClean, 0.33}}},
		{ID: "A11", City: "C2", Operator: "OPV", SizeKm2: 1.4, Locations: 9, Runs: 8, Weights: []Weight{
			{ArchN2E1, 0.22}, {ArchN2E2, 0.48}, {ArchN1E1, 0.02}, {ArchClean, 0.28}}},
	}
}

// AreasFor returns the areas of one operator.
func AreasFor(op string) []AreaSpec {
	var out []AreaSpec
	for _, a := range Areas() {
		if a.Operator == op {
			out = append(out, a)
		}
	}
	return out
}

// AreaByID returns one area spec, or false.
func AreaByID(id string) (AreaSpec, bool) {
	for _, a := range Areas() {
		if a.ID == id {
			return a, true
		}
	}
	return AreaSpec{}, false
}

// Cluster is the calibrated local deployment at one test location.
// Its cells have distinct Refs, so a cell's position in Cells identifies
// it as well as its Ref does; the run engine keys its per-cell state by
// that position.
type Cluster struct {
	Index int       // location index within the area
	Loc   geo.Point // the test location
	Arch  Archetype // generation label (diagnostics only)
	Cells []*cell.Cell
}

// CellByRef returns the deployed cell for a ref, or nil.
func (c *Cluster) CellByRef(r cell.Ref) *cell.Cell {
	for _, cc := range c.Cells {
		if cc.Ref == r {
			return cc
		}
	}
	return nil
}

// CellsOnChannel returns the cluster's cells on one channel.
func (c *Cluster) CellsOnChannel(ch int) []*cell.Cell {
	var out []*cell.Cell
	for _, cc := range c.Cells {
		if cc.Channel == ch {
			out = append(out, cc)
		}
	}
	return out
}

// Deployment is the full synthetic deployment of one area.
type Deployment struct {
	Op       *policy.Operator
	Area     AreaSpec
	Field    *radio.Field
	Clusters []*Cluster
}

// Build constructs an area deployment. The same (area, seed) always
// produces the same deployment.
func Build(op *policy.Operator, area AreaSpec, seed int64) *Deployment {
	field := radio.NewField(seed*1000003 + int64(len(area.ID)))
	rng := rand.New(rand.NewSource(seed ^ hashID(area.ID)))
	side := 1000.0 * sqrtApprox(area.SizeKm2)
	rect := geo.NewRect(geo.P(0, 0), geo.P(side, side))
	locs := geo.SampleSparse(rect, area.Locations, 250, rng)

	d := &Deployment{Op: op, Area: area, Field: field}
	archs := archetypeQuota(area.Weights, area.Locations, rng)
	for i, loc := range locs {
		cl := buildCluster(op, field, area, i, loc, archs[i], rng)
		d.Clusters = append(d.Clusters, cl)
	}
	return d
}

// archetypeQuota allocates archetypes to locations by largest-remainder
// quota so each area's realized mix tracks its weights even with few
// locations, then shuffles the assignment.
func archetypeQuota(ws []Weight, n int, rng *rand.Rand) []Archetype {
	var total float64
	for _, w := range ws {
		total += w.W
	}
	type slot struct {
		arch  Archetype
		exact float64
		count int
	}
	slots := make([]slot, len(ws))
	assigned := 0
	for i, w := range ws {
		exact := w.W / total * float64(n)
		slots[i] = slot{arch: w.Arch, exact: exact, count: int(exact)}
		assigned += slots[i].count
	}
	for assigned < n {
		// Give the next location to the largest remainder.
		best, bestRem := 0, -1.0
		for i, s := range slots {
			if rem := s.exact - float64(s.count); rem > bestRem {
				best, bestRem = i, rem
			}
		}
		slots[best].count++
		assigned++
	}
	out := make([]Archetype, 0, n)
	for _, s := range slots {
		for i := 0; i < s.count; i++ {
			out = append(out, s.arch)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hashID folds an area ID into a seed perturbation.
func hashID(id string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range id {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h
}

// sqrtApprox is Newton's method; it keeps package math out of a hot
// import path for no good reason other than locality.
func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z -= (z*z - x) / (2 * z)
	}
	return z
}

// Calibrate sets a cell's TxPower so its median RSRP at loc equals
// target; exported for custom experiment setups (e.g. the F12
// regression).
func Calibrate(f *radio.Field, c *cell.Cell, loc geo.Point, target units.DBm) {
	calibrate(f, c, loc, target)
}

// NewCell constructs a deployed cell for custom setups.
func NewCell(rat band.RAT, pci, channel int, pos geo.Point, mimo int) *cell.Cell {
	return newCell(rat, pci, channel, pos, mimo)
}

// calibrate sets a cell's TxPower so its *median* RSRP at loc equals
// target. Because Field.Median is TxPower + deterministic terms, the
// adjustment is exact.
func calibrate(f *radio.Field, c *cell.Cell, loc geo.Point, target units.DBm) {
	c.TxPowerDBm = 0
	m0 := f.Median(c, loc)
	// With zero transmit power the median is exactly the deterministic
	// gain, so the required power is the target minus that gain.
	gain := m0.RSRPDBm.Sub(0)
	c.TxPowerDBm = target.Add(-gain)
}

// newCell constructs a cell at a tower position.
func newCell(rat band.RAT, pci, channel int, pos geo.Point, mimo int) *cell.Cell {
	return &cell.Cell{
		Ref:        cell.Ref{PCI: pci, Channel: channel},
		RAT:        rat,
		Pos:        pos,
		MIMOLayers: mimo,
	}
}

// jitter draws a uniform value in [lo, hi].
func jitter(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

// buildCluster dispatches per operator mode.
func buildCluster(op *policy.Operator, f *radio.Field, area AreaSpec, idx int,
	loc geo.Point, arch Archetype, rng *rand.Rand) *Cluster {
	if op.Mode == policy.ModeSA {
		return buildSACluster(f, area, idx, loc, arch, rng)
	}
	return buildNSACluster(op, f, area, idx, loc, arch, rng)
}

// buildSACluster realizes the OPT (5G SA) radio structure of §3: two
// wide n41 anchors plus the narrow n25 partners on 398410 and the
// co-channel 387410 pair whose gap controls S1E3.
func buildSACluster(f *radio.Field, area AreaSpec, idx int, loc geo.Point,
	arch Archetype, rng *rand.Rand) *Cluster {
	p1 := 100 + (idx*37+hashInt(area.ID))%700
	p2 := p1 + 97
	towerMain := loc.Add(-jitter(rng, 150, 260), jitter(rng, 100, 220))
	towerAlt := loc.Add(jitter(rng, 170, 280), -jitter(rng, 120, 240))

	// Anchor cells (4x4): the serving n41 pair plus the alternate PCell
	// group on the same channels at the other tower (F17's "target
	// PCell" structure).
	c521 := newCell(band.RATNR, p1, 521310, towerMain, 4)
	c501 := newCell(band.RATNR, p1, 501390, towerMain, 4)
	alt501 := newCell(band.RATNR, p2, 501390, towerAlt, 4)
	// n71 anchor at the alternate tower (the S23's band preference).
	c71 := newCell(band.RATNR, p2, 126270, towerAlt, 4)
	// Narrow n25 partners (2x2): the 398410 partner and the co-channel
	// 387410 pair split across towers so their gap varies over space
	// (Fig. 20's crossing surfaces).
	c398 := newCell(band.RATNR, p1, 398410, towerMain, 2)
	alt398 := newCell(band.RATNR, p2, 398410, towerAlt, 2)
	scA := newCell(band.RATNR, p1, 387410, towerMain, 2)
	scB := newCell(band.RATNR, p2, 387410, towerAlt, 2)

	anchor := units.DBm(jitter(rng, -84, -80))
	calibrate(f, c521, loc, anchor)
	calibrate(f, c501, loc, anchor.Add(units.DB(jitter(rng, -1, 1))))
	calibrate(f, alt501, loc, anchor.Add(units.DB(-jitter(rng, 10, 15))))
	calibrate(f, c71, loc, anchor.Add(units.DB(-jitter(rng, 2, 6))))
	calibrate(f, c398, loc, anchor.Add(units.DB(jitter(rng, -1, 1.5))))
	calibrate(f, alt398, loc, anchor.Add(units.DB(-jitter(rng, 12, 16))))

	// The 387410 pair is where the archetypes differ.
	aTarget := anchor.Add(units.DB(-jitter(rng, 0, 2)))
	var bTarget units.DBm
	switch arch {
	case ArchS1E3:
		// Close medians: A3 fires on fading, modification keeps
		// failing. The gap draw mixes mostly loop-prone small gaps with
		// a tail of marginal ones, spanning the likelihood range of
		// Fig. 8 (always-loop sites down to occasional ones).
		if rng.Float64() < 0.70 {
			bTarget = aTarget.Add(units.DB(-jitter(rng, 2.2, 7.0)))
		} else {
			bTarget = aTarget.Add(units.DB(-jitter(rng, 7.0, 11)))
		}
	case ArchBenignSwap:
		// Candidate genuinely stronger: one clean modification.
		bTarget = aTarget.Add(units.DB(jitter(rng, 7, 11)))
	case ArchS1E1:
		// Configured partner deep below the measurability floor.
		aTarget = units.DBm(jitter(rng, -136, -130))
		bTarget = aTarget.Add(units.DB(-jitter(rng, 4, 10)))
	case ArchS1E2:
		// Configured partner with terrible RSRQ but still measurable;
		// its co-channel alternate sits below the floor so the failure
		// stays on the S1E2 path. A quarter of S1E2 sites have their
		// bad apple on 398410 instead (Table 5: 398410 contributes
		// ~25% of S1E2 instances).
		if rng.Float64() < 0.25 {
			calibrate(f, c398, loc, units.DBm(jitter(rng, -115, -110)))
			// No usable co-channel alternate, or the network would
			// simply replace the bad apple (the S1E2 flaw is that no
			// command ever comes).
			calibrate(f, alt398, loc, units.DBm(jitter(rng, -136, -129)))
			bTarget = aTarget.Add(units.DB(-jitter(rng, 13, 20)))
		} else {
			aTarget = units.DBm(jitter(rng, -115, -110))
			bTarget = units.DBm(jitter(rng, -136, -129))
		}
	default: // ArchClean
		bTarget = aTarget.Add(units.DB(-jitter(rng, 13, 20)))
	}
	if area.ID == "A2" {
		// A2's 387410 coverage is distinctly worse (Fig. 17b).
		aTarget = aTarget.Add(-6)
		bTarget = bTarget.Add(-6)
	}
	calibrate(f, scA, loc, aTarget)
	calibrate(f, scB, loc, bTarget)

	// OPT still operates a thin 4G layer (Table 3: bands 2/12/66); the
	// SA engine never anchors on it, but the cells exist in the
	// deployment inventory and drive-test statistics.
	lte1 := newCell(band.RATLTE, p1, 850, towerMain, 2)
	lte2 := newCell(band.RATLTE, p2, 66986, towerAlt, 2)
	calibrate(f, lte1, loc, anchor.Add(units.DB(-jitter(rng, 8, 14))))
	calibrate(f, lte2, loc, anchor.Add(units.DB(-jitter(rng, 10, 16))))

	return &Cluster{Index: idx, Loc: loc, Arch: arch,
		Cells: []*cell.Cell{c521, c501, alt501, c71, c398, alt398, scA, scB, lte1, lte2}}
}

// buildNSACluster realizes the OPA/OPV radio structure of §5.2: an LTE
// neighborhood including the operator's problematic channel, plus the
// NR SCG cells.
func buildNSACluster(op *policy.Operator, f *radio.Field, area AreaSpec, idx int,
	loc geo.Point, arch Archetype, rng *rand.Rand) *Cluster {
	p1 := 30 + (idx*23+hashInt(area.ID))%450
	p2 := p1 + 113
	p3 := p1 + 211
	towerMain := loc.Add(-jitter(rng, 140, 240), jitter(rng, 90, 200))
	towerAlt := loc.Add(jitter(rng, 160, 260), -jitter(rng, 110, 230))

	var cells []*cell.Cell
	problem := op.ProblemChannel() // 5815 (OPA) / 5230 (OPV)

	// The "good" LTE PCell the SCG anchors on, and the problematic
	// low-band cell with the same PCI at the same tower.
	goodCh := 5145
	if op.Name == "OPV" {
		goodCh = 66586
	}
	good := newCell(band.RATLTE, p1, goodCh, towerMain, 2)
	prob := newCell(band.RATLTE, p1, problem, towerMain, 2)
	cells = append(cells, good, prob)

	goodTarget := units.DBm(jitter(rng, -97, -92))
	switch arch {
	case ArchN1E1:
		goodTarget = units.DBm(jitter(rng, -121.5, -119)) // RLF territory after redirect
	case ArchN1E2:
		goodTarget = units.DBm(jitter(rng, -128, -125)) // handover execution fails
	default:
		// Every other archetype keeps the healthy -97..-92 dBm target:
		// only the N1 loops need a weak redirect/handover victim.
	}
	calibrate(f, good, loc, goodTarget)
	// The problem cell: decent RSRP (low band travels) and, on loop
	// archetypes, a *marginal* RSRQ edge that keeps A3 firing on fading
	// without firing every report (the ON dwell times of Fig. 10 come
	// from exactly this margin). NoiseDB < 0 improves its RSRQ: the
	// channel is "5G-disabled"/underused (F15).
	var probTarget units.DBm
	if op.Name == "OPV" {
		// OPV's 5230 is the local RSRP leader, so leaving it (A3 RSRP
		// toward 66586) is fading-driven and slow — long ON dwells.
		probTarget = goodTarget.Add(units.DB(jitter(rng, 2.5, 4.5)))
	} else {
		probTarget = goodTarget.Add(units.DB(jitter(rng, 1, 3)))
	}
	switch arch {
	case ArchN2E1, ArchN1E2:
		// Marginal RSRQ edge: A3 keeps firing toward the problem cell
		// on fading.
		prob.NoiseDB = units.DB(jitter(rng, -0.1, 0.4))
	case ArchN1E1:
		// No edge even against a floor-RSRQ serving cell: the UE must
		// stay camped on the weak redirect target until RLF strikes.
		prob.NoiseDB = units.DB(jitter(rng, 13, 16))
	default:
		prob.NoiseDB = units.DB(jitter(rng, 6, 10)) // loaded: RSRQ edge absent
	}
	switch arch {
	case ArchN1E1, ArchN1E2:
		// The redirect target is the weak link; the problem cell keeps
		// its strength so the UE keeps coming back to it.
		probTarget = units.DBm(jitter(rng, -96, -91))
	case ArchClean, ArchN2E2:
		// F14: the problematic channel is *rarely used* outside its
		// loop sites — weak enough to lose even with its reselection
		// priority.
		probTarget = goodTarget.Add(units.DB(-jitter(rng, 13, 18)))
		prob.NoiseDB = units.DB(jitter(rng, 6, 10))
	default:
		// N2E1/N2E2 keep the marginal probTarget edge set above — that
		// edge is exactly what makes their A3 ping-pong fire.
	}
	calibrate(f, prob, loc, probTarget)

	// Neighbor LTE cells (reestablishment anchors and Table 3 filler).
	fallback := newCell(band.RATLTE, p2, 66486, towerAlt, 2)
	if op.Name == "OPV" {
		fallback = newCell(band.RATLTE, p2, 1075, towerAlt, 2)
	}
	calibrate(f, fallback, loc, units.DBm(jitter(rng, -106, -101)))
	cells = append(cells, fallback)
	for i, ch := range fillerLTE(op) {
		pci := p3 + i*31
		c := newCell(band.RATLTE, pci, ch, towerAlt, 2)
		calibrate(f, c, loc, units.DBm(jitter(rng, -112, -102)))
		cells = append(cells, c)
	}

	// NR SCG cells: PSCell + co-sited SCell, plus a co-channel
	// alternate whose gap drives N2E2.
	nrCh, nrSCellCh := 632736, 658080
	if op.Name == "OPV" {
		nrCh, nrSCellCh = 648672, 653952
	}
	ps := newCell(band.RATNR, p1, nrCh, towerMain, 2)
	psSCell := newCell(band.RATNR, p1, nrSCellCh, towerMain, 2)
	altPS := newCell(band.RATNR, p2, nrCh, towerAlt, 2)
	psTarget := units.DBm(jitter(rng, -108, -102))
	calibrate(f, ps, loc, psTarget)
	calibrate(f, psSCell, loc, psTarget.Add(units.DB(-jitter(rng, 4, 7))))
	if arch == ArchN2E2 {
		calibrate(f, altPS, loc, psTarget.Add(units.DB(-jitter(rng, 3, 9))))
	} else {
		calibrate(f, altPS, loc, psTarget.Add(units.DB(-jitter(rng, 14, 20))))
	}
	cells = append(cells, ps, psSCell, altPS)
	if op.Name == "OPA" {
		n5 := newCell(band.RATNR, p3, 174770, towerAlt, 2)
		calibrate(f, n5, loc, units.DBm(jitter(rng, -112, -106)))
		cells = append(cells, n5)
	}

	return &Cluster{Index: idx, Loc: loc, Arch: arch, Cells: cells}
}

// fillerLTE lists additional deployed LTE channels per operator
// (Table 3's band inventory), used for neighbor cells.
func fillerLTE(op *policy.Operator) []int {
	if op.Name == "OPV" {
		return []int{2560, 66836, 5230}
	}
	return []int{850, 1150, 2000, 9820, 66936}
}

// hashInt folds an area ID into a small nonnegative int.
func hashInt(id string) int {
	h := hashID(id)
	if h < 0 {
		h = -h
	}
	return int(h % 1000)
}
