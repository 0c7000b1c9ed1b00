package uesim

import (
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// nsaEngine simulates 5G NSA (OPA/OPV): a 4G master connection with an
// NR SCG managed through LTE RRC, plus the channel-specific operator
// policies that generate the N1/N2 loops.
type nsaEngine struct {
	*engine

	connected bool
	idleUntil time.Duration

	pcell    *cell.Cell
	psCell   *cell.Cell // SCG PSCell (nil = no SCG)
	scgSCell *cell.Cell // co-sited SCG secondary, may be nil

	nextReportAt time.Duration
	rlfStreak    int

	// SCG recovery gating: after an SCG failure the UE must wait for
	// the network's periodic configuration before it can measure and
	// report NR again (§5.3, F15 — the source of OPV's 30 s multiples).
	scgReadyAt time.Duration
	needConfig bool

	// failedPS records, by slot, PSCell-change targets that already
	// failed, used by the FastSCGRecovery mitigation.
	failedPS []bool

	// lte and nr list the slots of the cluster's LTE and NR cells, in
	// cluster order.
	lte, nr []int
}

// runNSA drives the NSA event loop.
func (e *engine) runNSA() {
	n := &nsaEngine{engine: e, failedPS: make([]bool, len(e.cfg.Cluster.Cells))}
	for i, c := range e.cfg.Cluster.Cells {
		switch c.RAT {
		case band.RATLTE:
			n.lte = append(n.lte, i)
		case band.RATNR:
			n.nr = append(n.nr, i)
		}
	}
	n.idleUntil = e.jitterDur(selectDelay, 200*time.Millisecond)
	// The OnePlus 10 Pro uses 4G only on OPA (F5's exception): model it
	// by never enabling NR; the run degenerates to a stable 4G session.
	for e.now < e.cfg.Duration {
		n.step()
		e.now += tick
	}
}

// nrDisabledByDevice reports the OnePlus 10 Pro on OPA quirk.
func (n *nsaEngine) nrDisabledByDevice() bool {
	return n.cfg.Device.LTEOnlyOnOPA && n.cfg.Op.Name == "OPA"
}

// step advances one tick.
func (n *nsaEngine) step() {
	if !n.connected {
		if n.now >= n.idleUntil {
			n.establish()
		}
		return
	}
	if n.now >= n.nextReportAt {
		// Schedule before deciding so handlers (e.g. the post-handover
		// quick report) can pull the next report closer.
		n.nextReportAt = n.now + n.jitterDur(reportPeriod, 200*time.Millisecond)
		n.reportAndDecide()
	}
}

// strongestLTE picks the LTE cell with the best priority-adjusted
// sampled RSRP, skipping any in the exclusion list.
func (n *nsaEngine) strongestLTE(exclude ...*cell.Cell) (*cell.Cell, meas.Measurement) {
	var best *cell.Cell
	var bestM meas.Measurement
	var bestScore units.DBm
outer:
	for _, i := range n.lte {
		c := n.cfg.Cluster.Cells[i]
		for _, x := range exclude {
			if x != nil && c.Ref == x.Ref {
				continue outer
			}
		}
		m := n.sample(i)
		if !m.Measurable() {
			continue
		}
		score := m.RSRPDBm.Add(n.cfg.Op.AnchorPriorityDB[c.Channel])
		if best == nil || score > bestScore {
			best, bestM, bestScore = c, m, score
		}
	}
	return best, bestM
}

// establish selects an LTE PCell and sets up the connection.
func (n *nsaEngine) establish() {
	best, _ := n.strongestLTE()
	if best == nil {
		n.idleUntil = n.now + 500*time.Millisecond
		return
	}
	n.emit(rrc.SetupRequest{Rat: band.RATLTE, Cell: best.Ref})
	n.emit(rrc.Setup{Rat: band.RATLTE, Cell: best.Ref})
	n.emit(rrc.SetupComplete{Rat: band.RATLTE, Cell: best.Ref})
	n.connected = true
	n.pcell = best
	n.psCell, n.scgSCell = nil, nil
	n.rlfStreak = 0
	n.nextReportAt = n.now + reportPeriod
	n.scgReadyAt = n.now + 500*time.Millisecond
	n.needConfig = false
	// Initial measurement configuration: B1 for SCG addition, A3 for
	// LTE mobility (printed like the appendix instances).
	n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: best.Ref, MeasConfig: n.measConfig()})
	n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
}

// measConfig renders the operator's configured events.
func (n *nsaEngine) measConfig() []rrc.MeasObject {
	var nrChs, lteChs []int
	for _, i := range n.nr {
		nrChs = appendUnique(nrChs, n.cfg.Cluster.Cells[i].Channel)
	}
	for _, i := range n.lte {
		lteChs = appendUnique(lteChs, n.cfg.Cluster.Cells[i].Channel)
	}
	return []rrc.MeasObject{
		{Channels: nrChs, Event: n.cfg.Op.B1},
		{Channels: lteChs, Event: n.cfg.Op.HandoverA3},
	}
}

// appendUnique adds v if absent.
func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// nrMeasAllowed reports whether the UE currently measures NR: it always
// may, except while waiting for fresh configuration after an SCG
// failure.
func (n *nsaEngine) nrMeasAllowed() bool {
	return !n.nrDisabledByDevice() && !(n.needConfig && n.now < n.scgReadyAt)
}

// reportAndDecide emits the periodic measurement report and runs the
// network-side policy engine.
//
//loopvet:hot
func (n *nsaEngine) reportAndDecide() {
	// Fresh-configuration push when due (the "updated configuration
	// information" of §5.3).
	if n.needConfig && n.now >= n.scgReadyAt {
		n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, MeasConfig: n.measConfig()})
		n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
		n.needConfig = false
	}

	cells := n.cfg.Cluster.Cells
	clear(n.sampled) // a new report: nothing drawn yet
	pc := n.slot(n.pcell)
	n.measure(pc, rrc.RolePCell)
	for _, i := range n.lte {
		if cells[i].Ref != n.pcell.Ref {
			n.measure(i, rrc.RoleCandidate)
		}
	}
	sawNR := false
	if n.nrMeasAllowed() {
		for _, i := range n.nr {
			c := cells[i]
			role := rrc.RoleCandidate
			switch {
			case n.psCell != nil && c.Ref == n.psCell.Ref:
				role = rrc.RolePSCell
			case n.scgSCell != nil && c.Ref == n.scgSCell.Ref:
				role = rrc.RoleSCell
			}
			if n.measure(i, role).Measurable() {
				sawNR = true
			}
		}
	}
	n.sendReport(band.RATLTE)

	// 1. Blind redirect (OPA's 5815 policy, F15): the moment any NR
	// cell is reported, the PCell switches to the same-PCI cell on the
	// redirect channel — without any measurement of the target.
	if redirectCh, ok := n.cfg.Op.BlindRedirect[n.pcell.Channel]; ok && sawNR {
		if target := n.samePCICell(redirectCh); target >= 0 {
			if n.cfg.Fixes.AlignHandoverPolicies && n.sample(target).RSRPDBm < -110 {
				// Mitigated network: redirects are measurement-gated,
				// so the UE is not thrown onto a failing cell (N1 fix).
			} else {
				n.executeHandover(cells[target])
				return
			}
		}
	}

	// 2. Radio link failure on the 4G PCell (N1E1).
	pcM, _ := n.measured(pc)
	if pcM.RSRPDBm < rlfThreshRSRP {
		n.rlfStreak++
	} else {
		n.rlfStreak = 0
	}
	if n.rlfStreak >= rlfConsecutive {
		n.reestablish(rrc.ReestOtherFailure)
		return
	}

	// 3. LTE A3 mobility.
	if !n.problemChannel(n.pcell.Channel) && !n.cfg.Fixes.AlignHandoverPolicies {
		// The problematic low-band cell is preferred whenever its RSRQ
		// is offset-stronger (Fig. 32's asymmetric criteria). The
		// AlignHandoverPolicies mitigation removes this inconsistent
		// preference outright (N2E1 fix).
		if prob := n.cellOnChannel(n.cfg.Op.ProblemChannel()); prob >= 0 {
			probM, _ := n.measured(prob)
			if n.cfg.Op.HandoverA3.Entered(pcM, probM) {
				n.executeHandover(cells[prob])
				return
			}
		}
	} else if n.cfg.Op.DropSCGOnHandoverTo[n.pcell.Channel] {
		// Leaving OPV's 5230 is RSRP-driven toward the mid-band cells.
		a3 := meas.A3(meas.QuantityRSRP, 6)
		best := -1
		var bestM meas.Measurement
		for _, i := range n.lte {
			c := cells[i]
			if c.Ref == n.pcell.Ref || n.problemChannel(c.Channel) {
				continue
			}
			m, _ := n.measured(i)
			if a3.Entered(pcM, m) && (best < 0 || m.RSRPDBm > bestM.RSRPDBm) {
				best, bestM = i, m
			}
		}
		if best >= 0 {
			n.executeHandover(cells[best])
			return
		}
	}

	// 4. SCG addition (B1) when allowed on this PCell. The network
	// anchors the PSCell on its designated NR carrier (the first
	// deployed NR channel); other channels only serve as SCG SCells.
	if n.psCell == nil && n.pcellAllows5G() && n.now >= n.scgReadyAt && !n.needConfig {
		anchorCh := n.cfg.Op.NRChannels[0]
		best := -1
		var bestMedian units.DBm
		for _, i := range n.nr {
			if cells[i].Channel != anchorCh {
				continue
			}
			m, ok := n.measured(i)
			if !ok || !m.Measurable() {
				continue
			}
			if !n.cfg.Op.B1.Entered(meas.Measurement{}, m) {
				continue
			}
			// Among B1-qualified cells the network anchors on the one
			// with the best long-term (median) strength, so the SCG
			// re-forms identically cycle after cycle.
			med := n.median(i).RSRPDBm
			if best < 0 || med > bestMedian {
				best, bestMedian = i, med
			}
		}
		if best >= 0 {
			n.addSCG(cells[best])
			return
		}
	}

	// 5a. Legacy A2-B1 inconsistency (F12 regression): with the
	// historical thresholds, a serving PSCell whose sample dips under
	// the A2 threshold is released outright — even though B1 will add
	// it right back, because Θ_B1 < Θ_A2.
	if lg := n.cfg.Op.LegacyA2B1; lg != nil && n.psCell != nil {
		if m, ok := n.measured(n.slot(n.psCell)); ok && m.RSRPDBm < lg.A2ThreshRSRPDBm {
			n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, SCGRelease: true})
			n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
			n.psCell, n.scgSCell = nil, nil
			// The configuration is intact; only the threshold was the
			// problem, so recovery is immediate.
			n.scgReadyAt = n.now + 500*time.Millisecond
			return
		}
	}

	// 5. PSCell change within the SCG (the N2E2 trigger).
	if n.psCell != nil {
		psM, _ := n.measured(n.slot(n.psCell))
		cand := -1
		var candM meas.Measurement
		for _, i := range n.nr {
			c := cells[i]
			if c.Channel != n.psCell.Channel || c.Ref == n.psCell.Ref {
				continue
			}
			m, ok := n.measured(i)
			if !ok || !m.Measurable() {
				continue
			}
			if n.cfg.Fixes.FastSCGRecovery && n.failedPS[i] {
				continue // do not retry a target that already failed
			}
			if n.cfg.Op.PSCellA3.Entered(psM, m) && (cand < 0 || m.RSRPDBm > candM.RSRPDBm) {
				cand, candM = i, m
			}
		}
		if cand >= 0 {
			n.changeSCG(cells[cand])
		}
	}
}

// problemChannel reports whether ch is the operator's problem channel.
func (n *nsaEngine) problemChannel(ch int) bool { return ch == n.cfg.Op.ProblemChannel() }

// pcellAllows5G applies the 5G-disabled-channel policy.
func (n *nsaEngine) pcellAllows5G() bool {
	return !n.cfg.Op.DisabledWith5G[n.pcell.Channel]
}

// samePCICell returns the slot of the LTE cell with the PCell's PCI on
// another channel, or -1.
func (n *nsaEngine) samePCICell(ch int) int {
	for _, i := range n.lte {
		if c := n.cfg.Cluster.Cells[i]; c.Channel == ch && c.PCI == n.pcell.PCI {
			return i
		}
	}
	return -1
}

// cellOnChannel returns the slot of the strongest-by-median LTE cell on
// a channel, or -1.
func (n *nsaEngine) cellOnChannel(ch int) int {
	best := -1
	var bestRSRP units.DBm
	for _, i := range n.lte {
		if n.cfg.Cluster.Cells[i].Channel != ch {
			continue
		}
		if m := n.median(i); best < 0 || m.RSRPDBm > bestRSRP {
			best, bestRSRP = i, m.RSRPDBm
		}
	}
	return best
}

// executeHandover performs an LTE PCell change. A target sampled below
// the execution threshold fails the handover (N1E2); success drops the
// SCG because the mobility message carries no spCellConfig (N2E1 path),
// scheduling a quick SCG re-addition where policy allows.
func (n *nsaEngine) executeHandover(target *cell.Cell) {
	tm := n.sample(n.slot(target))
	mob := target.Ref
	if tm.RSRPDBm < hoFailRSRP {
		// The command goes out but execution fails: the UE
		// re-establishes with cause handoverFailure (Fig. 31).
		n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, Mobility: &mob})
		n.reestablish(rrc.ReestHandoverFailure)
		return
	}
	n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, Mobility: &mob})
	n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
	n.pcell = target
	n.psCell, n.scgSCell = nil, nil
	n.rlfStreak = 0
	// Measurement configuration survives a handover, so SCG recovery is
	// quick: on a 5G-capable target the UE reports right after the
	// handover completes and the SCG is re-added sub-second (OPV N2E1,
	// Fig. 19). On a 5G-disabled target (OPA's 5815) the UE just camps
	// until the regular cadence, which is why OPA's OFF runs longer.
	n.scgReadyAt = n.now + n.jitterDur(300*time.Millisecond, 150*time.Millisecond)
	if !n.cfg.Op.DisabledWith5G[target.Channel] {
		n.nextReportAt = n.scgReadyAt + 50*time.Millisecond
	}
}

// reestablish models connection re-establishment after RLF or handover
// failure: everything is released, then the connection re-anchors on
// the strongest cell.
func (n *nsaEngine) reestablish(cause rrc.ReestCause) {
	n.emit(rrc.ReestablishmentRequest{Cause: cause})
	prevPCell := n.pcell
	n.pcell, n.psCell, n.scgSCell = nil, nil, nil
	n.rlfStreak = 0
	best, _ := n.strongestLTE(prevPCell)
	if best == nil {
		best = prevPCell
	}
	n.now += 100 * time.Millisecond
	n.emit(rrc.ReestablishmentComplete{Cell: best.Ref})
	n.pcell = best
	n.scgReadyAt = n.now + 500*time.Millisecond
	n.needConfig = false
}

// addSCG provisions the NR SCG: the PSCell plus its co-sited partner.
func (n *nsaEngine) addSCG(ps *cell.Cell) {
	psRef := ps.Ref
	rc := rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, SpCell: &psRef}
	var partner *cell.Cell
	for _, i := range n.nr {
		if c := n.cfg.Cluster.Cells[i]; c.PCI == ps.PCI && c.Channel != ps.Channel {
			partner = c
			break
		}
	}
	if partner != nil {
		rc.SCGSCells = []cell.Ref{partner.Ref}
	}
	n.emit(rc)
	n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
	n.psCell, n.scgSCell = ps, partner
}

// changeSCG attempts a PSCell change. Random access to a target whose
// advantage does not hold up fails, producing SCGFailureInformation and
// an SCG release (N2E2, Fig. 33); recovery then waits for the
// operator's configuration cadence.
func (n *nsaEngine) changeSCG(target *cell.Cell) {
	tRef := target.Ref
	n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, SpCell: &tRef})
	n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
	mOld := n.sample(n.slot(n.psCell))
	mNew := n.sample(n.slot(target))
	if mNew.RSRPDBm > mOld.RSRPDBm.Add(n.cfg.Op.PSCellA3.Offset) && mNew.RSRPDBm > scgExecFloor {
		n.psCell, n.scgSCell = target, nil
		return
	}
	n.failedPS[n.slot(target)] = true
	n.emit(rrc.SCGFailureInfo{FailureType: rrc.SCGFailureRandomAccess})
	n.emit(rrc.Reconfig{Rat: band.RATLTE, Serving: n.pcell.Ref, SCGRelease: true})
	n.emit(rrc.ReconfigComplete{Rat: band.RATLTE})
	n.psCell, n.scgSCell = nil, nil
	n.needConfig = true
	if n.cfg.Fixes.FastSCGRecovery {
		// Mitigated network: fresh configuration arrives immediately
		// instead of on the periodic cadence (the OPV N2E2 fix).
		n.scgReadyAt = n.now + n.jitterDur(time.Second, 300*time.Millisecond)
		return
	}
	n.scgReadyAt = n.now + n.scgRecoveryWait()
}

// scgRecoveryWait models the post-failure configuration delay: OPA
// pushes within about a second; OPV's UEs wait for the 30-second
// periodic configuration and often miss the first ones, producing the
// 30/60/90 s OFF times of Fig. 19c (66% above 30 s in the paper).
func (n *nsaEngine) scgRecoveryWait() time.Duration {
	period := n.cfg.Op.SCGRecoveryConfigPeriod
	if period <= time.Second {
		return n.jitterDur(1200*time.Millisecond, 800*time.Millisecond)
	}
	r := n.rng.Float64()
	switch {
	case r < 0.25:
		return n.jitterDur(1500*time.Millisecond, time.Second)
	case r < 0.70:
		return period
	case r < 0.88:
		return 2 * period
	default:
		return 3 * period
	}
}
