package uesim

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/units"
)

// saEngine simulates 5G SA (OPT): NR PCell anchoring, network-configured
// SCell partners, measurement reporting, and the three S1 failure paths.
type saEngine struct {
	*engine

	connected bool
	idleUntil time.Duration
	broadcast bool // MIB/SIB1 emitted for this idle period

	pcell     *cell.Cell
	lastPCell *cell.Cell // most recently camped PCell (selection stickiness)
	scells    []*cell.Cell
	indexOf   []int // sCellIndex assignment by slot, 0 when unassigned
	nextIdx   int

	scellsAdded  bool
	scellAddAt   time.Duration
	nextReportAt time.Duration

	// Per-SCell report streaks by slot, reset on establishment.
	missingStreak []int
	poorStreak    []int

	// failedCand records modification targets that already failed, used
	// by the BlacklistFailedModTargets mitigation (network-side state,
	// persists across re-establishments).
	failedCand []bool
	// a3Streak counts consecutive reports in which a candidate's A3
	// condition held, for the time-to-trigger mitigation.
	a3Streak []int

	// anchors lists the anchor candidates in selection order, and
	// isAnchor marks their slots. byChPCI orders every slot by
	// (Channel, PCI), the order candidates are sampled and reported in;
	// cands holds one report's candidate slots in that order.
	anchors  []int
	isAnchor []bool
	byChPCI  []int
	cands    []int
}

// runSA drives the SA event loop for the configured duration.
func (e *engine) runSA() {
	n := len(e.cfg.Cluster.Cells)
	sa := &saEngine{engine: e, nextIdx: 1,
		indexOf: make([]int, n), missingStreak: make([]int, n), poorStreak: make([]int, n),
		failedCand: make([]bool, n), a3Streak: make([]int, n),
		isAnchor: make([]bool, n), byChPCI: make([]int, n), cands: make([]int, 0, n)}
	// Which cells may anchor, and the order candidates are reported in,
	// depend only on the cluster and the device.
	sa.anchors = sa.anchorCandidates()
	for _, i := range sa.anchors {
		sa.isAnchor[i] = true
	}
	cells := e.cfg.Cluster.Cells
	for i := range sa.byChPCI {
		sa.byChPCI[i] = i
	}
	slices.SortFunc(sa.byChPCI, func(a, b int) int {
		if c := cmp.Compare(cells[a].Channel, cells[b].Channel); c != 0 {
			return c
		}
		return cmp.Compare(cells[a].PCI, cells[b].PCI)
	})
	sa.idleUntil = e.jitterDur(selectDelay, 200*time.Millisecond)
	for e.now < e.cfg.Duration {
		sa.step()
		e.now += tick
	}
}

// step advances one tick.
func (s *saEngine) step() {
	if !s.connected {
		if s.now >= s.idleUntil {
			s.establish()
		}
		return
	}
	if !s.scellsAdded && s.now >= s.scellAddAt {
		s.addSCells()
	}
	if s.now >= s.nextReportAt {
		s.reportAndDecide()
		s.nextReportAt = s.now + reportPeriod
	}
}

// anchorCandidates lists the slots of the cells this device may anchor
// on (PCell): NR cells on anchor-capable channels respecting the
// device's MIMO constraint, with the device band preference applied.
func (s *saEngine) anchorCandidates() []int {
	var out []int
	for i, c := range s.cfg.Cluster.Cells {
		if c.RAT != band.RATNR || c.MIMOLayers < s.cfg.Device.MinMIMOLayers {
			continue
		}
		switch c.Band() {
		case "n41", "n71": // wide anchors
			out = append(out, i)
		case "n25":
			if c.Channel == 501390 { // not deployed; n25 never anchors here
				out = append(out, i)
			}
		}
	}
	if pref := s.cfg.Device.PreferredNRBand; pref != "" {
		var preferred []int
		for _, i := range out {
			if s.cfg.Cluster.Cells[i].Band() == pref {
				preferred = append(preferred, i)
			}
		}
		if len(preferred) > 0 {
			return preferred
		}
	}
	return out
}

// establish performs cell selection and RRC connection establishment
// (the paper's Fig. 24 flow).
func (s *saEngine) establish() {
	best, _ := s.selectCell()
	if best == nil {
		// Nothing above the selection threshold right now; retry soon.
		s.idleUntil = s.now + 500*time.Millisecond
		return
	}
	if !s.broadcast {
		s.emit(rrc.MIB{Rat: band.RATNR, Cell: best.Ref})
		s.emit(rrc.SIB1{Rat: band.RATNR, Cell: best.Ref, ThreshRSRPDBm: s.cfg.Op.SelectThreshRSRPDBm})
		s.broadcast = true
	}
	s.emit(rrc.SetupRequest{Rat: band.RATNR, Cell: best.Ref})
	s.emit(rrc.Setup{Rat: band.RATNR, Cell: best.Ref})
	s.emit(rrc.SetupComplete{Rat: band.RATNR, Cell: best.Ref})
	s.connected = true
	s.pcell = best
	s.lastPCell = best
	s.scells = nil
	clear(s.indexOf)
	s.nextIdx = 1
	s.scellsAdded = false
	s.scellAddAt = s.now + s.jitterDur(scellAddDelay, 300*time.Millisecond)
	s.nextReportAt = s.now + reportPeriod
	clear(s.missingStreak)
	clear(s.poorStreak)
	if !s.cfg.Device.SupportsNRCA {
		s.scellsAdded = true // single-cell operation
	}
}

// selectCell picks the anchor with the best priority-adjusted sampled
// RSRP among those clearing the SIB threshold. The per-channel priority
// (SIB cellReselectionPriority) makes re-anchoring deterministic enough
// for loops to persist.
func (s *saEngine) selectCell() (*cell.Cell, meas.Measurement) {
	var best *cell.Cell
	var bestM meas.Measurement
	var bestScore units.DBm
	for _, i := range s.anchors {
		c := s.cfg.Cluster.Cells[i]
		m := s.sample(i)
		if m.RSRPDBm < s.cfg.Op.SelectThreshRSRPDBm {
			continue
		}
		score := m.RSRPDBm.Add(s.cfg.Op.AnchorPriorityDB[c.Channel])
		// Camping stickiness: the UE strongly prefers re-selecting the
		// cell it last camped on (stored-information cell selection),
		// which is what makes the loop re-anchor identically.
		if !s.cfg.NoCampingStickiness && s.lastPCell != nil && c.Ref == s.lastPCell.Ref {
			score = score.Add(campingStickyDB)
		}
		if best == nil || score > bestScore {
			best, bestM, bestScore = c, m, score
		}
	}
	return best, bestM
}

// campingStickyDB is the re-selection bonus of the last camped cell.
const campingStickyDB units.DB = 8.0

// partnerSCells returns the network-configured SCell partner list for a
// PCell, filtered by device capability. The configuration is
// channel-structural, not measurement-driven — which is exactly how a
// below-the-floor partner ends up configured (S1E1).
func (s *saEngine) partnerSCells() []*cell.Cell {
	var partners []*cell.Cell
	pcellPCI := s.pcell.PCI
	switch s.pcell.Band() {
	case "n41":
		// Co-sited cells on the other channels: the other n41 channel,
		// the n25 398410 partner, and the n25 387410 partner (Fig. 25).
		for _, c := range s.cfg.Cluster.Cells {
			if c.RAT != band.RATNR || c.PCI != pcellPCI || c.Channel == s.pcell.Channel {
				continue
			}
			if c.Band() == "n41" || c.Band() == "n25" {
				partners = append(partners, c)
			}
		}
	case "n71":
		// The n71 anchor pairs with the strongest n41 cell only.
		var best *cell.Cell
		var bestRSRP units.DBm
		for i, c := range s.cfg.Cluster.Cells {
			if c.RAT != band.RATNR || c.Band() != "n41" {
				continue
			}
			if m := s.median(i); best == nil || m.RSRPDBm > bestRSRP {
				best, bestRSRP = c, m.RSRPDBm
			}
		}
		if best != nil {
			partners = append(partners, best)
		}
	case "n25":
		// Alternate-tower 501390 anchor pairs narrowly with its own
		// 398410 cell.
		for _, c := range s.cfg.Cluster.Cells {
			if c.RAT == band.RATNR && c.PCI == pcellPCI && c.Channel == 398410 {
				partners = append(partners, c)
			}
		}
	}
	// Device constraints: MIMO compatibility and SCell count.
	var out []*cell.Cell
	for _, c := range partners {
		if c.MIMOLayers >= s.cfg.Device.MinMIMOLayers {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	if max := s.cfg.Device.MaxNRSCells; len(out) > max {
		// Prefer the widest channels when the device caps aggregation.
		sort.Slice(out, func(i, j int) bool { return out[i].WidthMHz() > out[j].WidthMHz() })
		out = out[:max]
		sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	}
	return out
}

// addSCells issues the SCell-addition reconfiguration (Fig. 25).
func (s *saEngine) addSCells() {
	s.scellsAdded = true
	partners := s.partnerSCells()
	if len(partners) == 0 {
		return
	}
	rc := rrc.Reconfig{Rat: band.RATNR, Serving: s.pcell.Ref}
	for _, c := range partners {
		rc.AddSCells = append(rc.AddSCells, rrc.SCellEntry{Index: s.nextIdx, Cell: c.Ref})
		s.indexOf[s.slot(c)] = s.nextIdx
		s.nextIdx++
		s.scells = append(s.scells, c)
	}
	channels := servingChannels(s.pcell, s.scells)
	rc.MeasConfig = []rrc.MeasObject{
		{Channels: channels, Event: s.cfg.Op.SCellA2},
		{Channels: channels, Event: s.cfg.Op.SCellA3},
	}
	s.emit(rc)
	s.emit(rrc.ReconfigComplete{Rat: band.RATNR})
}

// servingChannels lists the distinct channels in use.
func servingChannels(pcell *cell.Cell, scells []*cell.Cell) []int {
	seen := map[int]bool{pcell.Channel: true}
	out := []int{pcell.Channel}
	for _, c := range scells {
		if !seen[c.Channel] {
			seen[c.Channel] = true
			out = append(out, c.Channel)
		}
	}
	sort.Ints(out)
	return out
}

// reportAndDecide samples the environment, emits the measurement report,
// and runs the network-side decision logic (Fig. 14's four-step cycle).
//
//loopvet:hot
func (s *saEngine) reportAndDecide() {
	cells := s.cfg.Cluster.Cells
	clear(s.sampled) // a new report: nothing drawn yet
	s.measure(s.slot(s.pcell), rrc.RolePCell)
	for _, c := range s.scells {
		s.measure(s.slot(c), rrc.RoleSCell)
	}
	// Candidates: co-channel alternatives to serving SCells plus the
	// other anchors, reported in (Channel, PCI) order so the RNG
	// consumption order (and thus the whole run) is deterministic.
	s.cands = s.cands[:0]
	for _, i := range s.byChPCI {
		if c := cells[i]; !s.serving(c.Ref) && (s.isAnchor[i] || s.coChannelAlternative(c)) {
			s.cands = append(s.cands, i)
			s.measure(i, rrc.RoleCandidate)
		}
	}
	s.sendReport(band.RATNR)

	// 1. S1E1 path: a serving SCell missing from reports.
	for _, sc := range s.scells {
		i := s.slot(sc)
		if m, _ := s.measured(i); m.Measurable() {
			s.missingStreak[i] = 0
			continue
		}
		s.missingStreak[i]++
		if s.missingStreak[i] >= missingReports {
			if s.cfg.Fixes.ReleaseOnlyBadApple {
				s.releaseSCell(sc)
				return
			}
			// RRC gives up on the whole MCG: "a few bad apples ruin
			// all" (F9).
			s.emit(rrc.Release{Rat: band.RATNR})
			s.goIdle(s.jitterDur(releaseIdle, time.Second))
			return
		}
	}
	// 2. S1E2 path: a serving SCell persistently reported very poor,
	// with no corrective command in the network's logic.
	for _, sc := range s.scells {
		i := s.slot(sc)
		m, ok := s.measured(i)
		if ok && m.Measurable() && m.RSRQDB <= -23 {
			s.poorStreak[i]++
			if s.poorStreak[i] >= poorReports {
				if s.cfg.Fixes.ReleaseOnlyBadApple {
					s.releaseSCell(sc)
					return
				}
				s.emit(rrc.Release{Rat: band.RATNR})
				s.goIdle(s.jitterDur(releaseIdle, time.Second))
				return
			}
		} else if ok {
			s.poorStreak[i] = 0
		}
	}
	// 3. S1E3 path: A3 — a co-channel candidate looks offset-better
	// than a serving SCell, so the network commands a modification.
	for _, sc := range s.scells {
		servM, ok := s.measured(s.slot(sc))
		if !ok || !servM.Measurable() {
			continue
		}
		best := -1
		var bestM meas.Measurement
		for _, i := range s.cands {
			if cells[i].Channel != sc.Channel {
				continue
			}
			if s.cfg.Fixes.BlacklistFailedModTargets && s.failedCand[i] {
				continue
			}
			m, ok := s.measured(i)
			if !ok || !m.Measurable() {
				continue
			}
			if best < 0 || m.RSRPDBm > bestM.RSRPDBm {
				best, bestM = i, m
			}
		}
		if best < 0 || !s.cfg.Op.SCellA3.Entered(servM, bestM) {
			if best >= 0 {
				s.a3Streak[best] = 0
			}
			continue
		}
		// Time-to-trigger (mitigation): the condition must persist for
		// k consecutive reports, filtering out fading flukes.
		if ttt := s.cfg.Fixes.A3TimeToTriggerReports; ttt > 0 {
			s.a3Streak[best]++
			if s.a3Streak[best] < ttt {
				continue
			}
			s.a3Streak[best] = 0
		}
		if s.modifySCell(sc, cells[best]) {
			return // state changed (success or exception); re-evaluate next report
		}
	}
}

// coChannelAlternative reports whether c shares a channel with a
// serving SCell and meets the device's MIMO constraint.
func (s *saEngine) coChannelAlternative(c *cell.Cell) bool {
	if c.MIMOLayers < s.cfg.Device.MinMIMOLayers {
		return false
	}
	for _, sc := range s.scells {
		if sc.Channel == c.Channel {
			return true
		}
	}
	return false
}

// serving reports whether a ref is the PCell or an SCell.
func (s *saEngine) serving(r cell.Ref) bool {
	if s.pcell.Ref == r {
		return true
	}
	for _, c := range s.scells {
		if c.Ref == r {
			return true
		}
	}
	return false
}

// modifySCell issues the SCell-modification reconfiguration and models
// its execution. On the fragile channel the commanded advantage must
// hold up at activation time; when it does not, the modem throws the
// exception that releases every serving cell (S1E3, Fig. 26). It
// returns true when the serving set changed.
func (s *saEngine) modifySCell(old, new_ *cell.Cell) bool {
	oldSlot, newSlot := s.slot(old), s.slot(new_)
	oldIdx := s.indexOf[oldSlot]
	newIdx := s.nextIdx
	s.nextIdx++
	s.emit(rrc.Reconfig{
		Rat:           band.RATNR,
		Serving:       s.pcell.Ref,
		AddSCells:     []rrc.SCellEntry{{Index: newIdx, Cell: new_.Ref}},
		ReleaseSCells: []int{oldIdx},
	})
	s.emit(rrc.ReconfigComplete{Rat: band.RATNR})

	// Execution: re-observe both cells at activation. On the fragile
	// narrow channel the commanded advantage must still hold; on the
	// robust wide channels only absolute weakness fails activation.
	mOld := s.sample(oldSlot)
	mNew := s.sample(newSlot)
	ok := mNew.RSRPDBm > modExecFloor
	if new_.Channel == fragileChannel {
		ok = ok && mNew.RSRPDBm > mOld.RSRPDBm.Add(fragileMarginDB)
	}
	if ok {
		s.indexOf[oldSlot] = 0
		s.indexOf[newSlot] = newIdx
		for i, c := range s.scells {
			if c.Ref == old.Ref {
				s.scells[i] = new_
			}
		}
		s.missingStreak[oldSlot] = 0
		s.poorStreak[oldSlot] = 0
		return true
	}
	s.failedCand[newSlot] = true
	s.emit(rrc.Exception{MMState: "DEREGISTERED", Substate: "NO_CELL_AVAILABLE"})
	s.goIdle(s.jitterDur(exceptionIdle, time.Second))
	return true
}

// releaseSCell drops a single SCell (the F9 mitigation): the connection
// and the other serving cells survive.
func (s *saEngine) releaseSCell(bad *cell.Cell) {
	slot := s.slot(bad)
	idx := s.indexOf[slot]
	if idx == 0 {
		return
	}
	s.emit(rrc.Reconfig{
		Rat:           band.RATNR,
		Serving:       s.pcell.Ref,
		ReleaseSCells: []int{idx},
	})
	s.emit(rrc.ReconfigComplete{Rat: band.RATNR})
	s.indexOf[slot] = 0
	s.missingStreak[slot] = 0
	s.poorStreak[slot] = 0
	for i, c := range s.scells {
		if c.Ref == bad.Ref {
			s.scells = append(s.scells[:i], s.scells[i+1:]...)
			break
		}
	}
}

// goIdle drops the connection state and schedules re-establishment.
func (s *saEngine) goIdle(after time.Duration) {
	s.connected = false
	s.broadcast = false
	s.pcell = nil
	s.scells = nil
	s.idleUntil = s.now + after
}
