// Package trace implements the paper's Appendix-B methodology: folding
// a parsed signaling log into the sequence of serving cell sets (CS)
// over time, annotating every transition with the evidence needed for
// cause analysis (§5) — which RRC procedure changed the set and what
// failure, if any, accompanied it.
package trace

import (
	"fmt"
	"math"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/units"
)

// ReleaseKind distinguishes how a transition happened, the primary
// classification signal of §5.
type ReleaseKind uint8

// Transition causes, ordered roughly by the paper's presentation.
const (
	// CauseNone marks transitions that gain or rearrange cells without
	// a failure (establishment, SCell addition, SCG addition).
	CauseNone ReleaseKind = iota
	// CauseException is the modem exception after a failed SCell
	// modification (S1E3): all serving cells vanish without an
	// over-the-air release.
	CauseException
	// CauseRRCRelease is an explicit connection release to IDLE; the
	// surrounding measurement history tells S1E1 from S1E2.
	CauseRRCRelease
	// CauseReestablishment covers RLF and handover failure on the 4G
	// PCell (N1E1/N1E2, by ReestCause).
	CauseReestablishment
	// CauseSCGRelease is an SCG released by reconfiguration, normally
	// right after SCGFailureInformation (N2E2).
	CauseSCGRelease
	// CauseHandoverNoSCG is a successful 4G PCell handover whose
	// reconfiguration carries no spCellConfig, dropping the SCG (N2E1).
	CauseHandoverNoSCG
)

// String names the cause.
func (k ReleaseKind) String() string {
	switch k {
	case CauseNone:
		return "none"
	case CauseException:
		return "exception"
	case CauseRRCRelease:
		return "rrc-release"
	case CauseReestablishment:
		return "reestablishment"
	case CauseSCGRelease:
		return "scg-release"
	case CauseHandoverNoSCG:
		return "handover-no-scg"
	default:
		return fmt.Sprintf("ReleaseKind(%d)", uint8(k))
	}
}

// SCellMod records an attempted SCell modification: Released replaced by
// Added (the S1E3 trigger, e.g. 273@387410 → 371@387410).
type SCellMod struct {
	Released cell.Ref
	Added    cell.Ref
}

// IntraChannel reports whether the modification swaps co-channel cells,
// the shape of every S1E3 instance in the study.
func (m SCellMod) IntraChannel() bool { return m.Released.Channel == m.Added.Channel }

// Evidence carries everything the classifier needs about one transition.
type Evidence struct {
	Kind       ReleaseKind
	ReestCause rrc.ReestCause      // when Kind == CauseReestablishment
	SCGFailure rrc.SCGFailureCause // when an SCGFailureInformation preceded
	// PendingMod is the SCell modification commanded immediately before
	// an exception, when one exists.
	PendingMod *SCellMod
	// Mod is the SCell modification applied by the reconfiguration that
	// entered this step (successful modifications; Table 5's
	// denominator).
	Mod *SCellMod
	// UnmeasuredSCells lists serving SCells that never appeared in any
	// measurement report during the ended ON period (S1E1 signal).
	UnmeasuredSCells []cell.Ref
	// PoorSCells lists serving SCells whose latest report was very poor
	// with no follow-up command (S1E2 signal).
	PoorSCells []cell.Ref
	// WorstSCellRSRP is the weakest reported serving-SCell RSRP in the
	// ended ON period. When no SCell was ever reported it holds the
	// +Inf sentinel (0 dBm sits inside the valid RSRP domain and is
	// indistinguishable from a real — if implausible — report); use
	// HasSCellReport before reading it as a dBm value.
	WorstSCellRSRP units.DBm
	// HandoverFrom/To record PCell changes.
	HandoverFrom, HandoverTo cell.Ref
	// Reports counts measurement reports seen in the ended ON period.
	Reports int
}

// HasSCellReport reports whether any serving SCell appeared in a
// measurement report during the ended ON period — i.e. whether
// WorstSCellRSRP carries a real dBm value rather than the +Inf
// no-report sentinel. Evidence produced by this package always uses
// the sentinel convention.
func (e Evidence) HasSCellReport() bool { return !math.IsInf(e.WorstSCellRSRP.Float(), 1) }

// newEvidence returns an Evidence of the given kind with the
// WorstSCellRSRP sentinel in place.
func newEvidence(kind ReleaseKind) Evidence {
	return Evidence{Kind: kind, WorstSCellRSRP: units.DBm(math.Inf(1))}
}

// Step is one entry of the CS timeline: the set in force from At until
// the next step, plus the evidence of the transition that entered it.
type Step struct {
	At       time.Duration
	Set      cell.Set
	Evidence Evidence
}

// Timeline is the extracted CS sequence of one run.
type Timeline struct {
	Steps    []Step
	Duration time.Duration // end of observation (last event time)
}

// Keys returns the canonical key of every step's set, the sequence loop
// detection runs on.
func (t *Timeline) Keys() []string {
	keys := make([]string, len(t.Steps))
	for i, s := range t.Steps {
		keys[i] = s.Set.Key()
	}
	return keys
}

// StepEnd returns when step i stops being in force.
func (t *Timeline) StepEnd(i int) time.Duration {
	if i+1 < len(t.Steps) {
		return t.Steps[i+1].At
	}
	return t.Duration
}

// TimeIn5G returns the total time spent with 5G ON between from and to.
func (t *Timeline) TimeIn5G(from, to time.Duration) time.Duration {
	var sum time.Duration
	for i, s := range t.Steps {
		if !s.Set.Uses5G() {
			continue
		}
		start, end := s.At, t.StepEnd(i)
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if end > start {
			sum += end - start
		}
	}
	return sum
}

// Occupancy summarizes how long a timeline spends in each radio-access
// state — the denominator view behind the paper's OFF-time ratios.
type Occupancy struct {
	Idle   time.Duration
	SA     time.Duration
	NSA    time.Duration
	LTE    time.Duration // 4G-only
	Total  time.Duration
	Steps  int
	Swings int // ON→OFF transitions
}

// On5G returns the total time with 5G in use.
func (o Occupancy) On5G() time.Duration { return o.SA + o.NSA }

// OffRatio returns the share of observed time without 5G.
func (o Occupancy) OffRatio() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Total-o.On5G()) / float64(o.Total)
}

// Occupy computes the state occupancy of a timeline.
func (t *Timeline) Occupy() Occupancy {
	o := Occupancy{Steps: len(t.Steps), Total: t.Duration}
	prevOn := false
	for i, s := range t.Steps {
		d := t.StepEnd(i) - s.At
		if d < 0 {
			d = 0
		}
		switch s.Set.State() {
		case cell.StateIdle:
			o.Idle += d
		case cell.State5GSA:
			o.SA += d
		case cell.State5GNSA:
			o.NSA += d
		case cell.State4GOnly:
			o.LTE += d
		}
		on := s.Set.Uses5G()
		if prevOn && !on {
			o.Swings++
		}
		prevOn = on
	}
	return o
}

// PoorRSRQThresholdDB marks a reported SCell as a "bad apple": the S1E2
// instances report RSRQ around −25 dB for the poor SCell.
const PoorRSRQThresholdDB units.DB = -23.0

// extractor is the folding state machine.
type extractor struct {
	tl  Timeline
	cur cell.Set

	// onStep, when set, observes every appended timeline step — the
	// hook online loop detection rides (Builder.TeeSteps).
	onStep func(Step)

	// SCell index bookkeeping (sCellIndex → cell), per the add/release
	// lists of RRCReconfiguration.
	scellIndex map[int]cell.Ref

	// pending is the last reconfiguration awaiting its Complete.
	pending *rrc.Reconfig

	// lastApplied remembers the most recently applied reconfiguration,
	// to attribute an immediately following exception (S1E3).
	lastApplied   *rrc.Reconfig
	lastAppliedAt time.Duration
	lastMod       *SCellMod

	// ON-period measurement bookkeeping for S1E1/S1E2 evidence: a
	// cell was seen in a report exactly when it has a lastMeas entry.
	reports     int
	lastMeas    map[cell.Ref]rrc.MeasEntry
	lastSCGFail rrc.SCGFailureCause
	scgFailAt   time.Duration
}

// Extract folds a signaling log into a timeline. The timeline always
// starts with an IDLE step at t=0.
func Extract(log *sig.Log) *Timeline { return FromLog(log) }

// Builder folds capture events into a timeline incrementally, one event
// per Append. It implements sig.Sink, so the simulator or a streaming
// parser can feed extraction directly — no materialized event log
// between the two stages. The clock-resync behavior is exactly
// FromLog's: when an event's timestamp regresses (a logger restart
// reset the clock, or a jump moved it backwards), the stream is
// re-anchored at the latest observed time and subsequent offsets stay
// monotonic. Clean captures are untouched — the resync offset stays
// zero.
//
// A Builder must not be reused after Finish.
type Builder struct {
	ex           extractor
	offset, last time.Duration
}

var _ sig.Sink = (*Builder)(nil)

// NewBuilder returns a Builder whose timeline starts, like every
// extracted timeline, with an IDLE step at t=0.
func NewBuilder() *Builder {
	b := &Builder{ex: extractor{
		scellIndex: make(map[int]cell.Ref),
		lastMeas:   make(map[cell.Ref]rrc.MeasEntry),
	}}
	b.ex.push(0, cell.Idle(), newEvidence(CauseNone))
	return b
}

// TeeSteps registers fn to receive every timeline step the builder
// appends, at the moment it is appended — the hook that lets an
// incremental consumer (core.StreamDetector) ride the pass that feeds
// the builder. Steps already in the timeline (always at least the
// initial IDLE step) are replayed to fn immediately, so a tee
// registered after NewBuilder still sees the complete sequence. One tee
// at a time: registering again replaces the previous one; nil removes
// it.
func (b *Builder) TeeSteps(fn func(Step)) {
	b.ex.onStep = fn
	if fn == nil {
		return
	}
	for _, s := range b.ex.tl.Steps {
		fn(s)
	}
}

// Append folds one event, applying the monotonic clock resync.
// It implements sig.Sink.
func (b *Builder) Append(at time.Duration, m rrc.Message) {
	at += b.offset
	if at < b.last {
		// Clock went backwards: treat the streams as contiguous.
		b.offset += b.last - at
		at = b.last
	}
	b.last = at
	b.ex.handle(at, m)
}

// Finish seals the timeline: observation ends at the last event time
// (never before the last step). The returned Timeline is detached from
// the Builder, so holding it keeps neither the folding state nor a
// teed consumer alive.
func (b *Builder) Finish() *Timeline {
	tl := b.ex.tl
	tl.Duration = b.last
	if last := tl.Steps[len(tl.Steps)-1].At; tl.Duration < last {
		tl.Duration = last
	}
	return &tl
}

// FromLog folds a signaling log into a timeline, tolerating the clock
// artifacts of salvaged captures (see Builder for the resync rule).
func FromLog(log *sig.Log) *Timeline {
	b := NewBuilder()
	for _, e := range log.Events {
		b.Append(e.At, e.Msg)
	}
	return b.Finish()
}

// push appends a step if the set actually changed.
func (ex *extractor) push(at time.Duration, s cell.Set, ev Evidence) {
	if len(ex.tl.Steps) > 0 && ex.tl.Steps[len(ex.tl.Steps)-1].Set.Equal(s) {
		return
	}
	ex.cur = s
	step := Step{At: at, Set: s, Evidence: ev}
	ex.tl.Steps = append(ex.tl.Steps, step)
	if ex.onStep != nil {
		ex.onStep(step)
	}
}

// resetONBookkeeping clears the per-ON-period measurement state.
func (ex *extractor) resetONBookkeeping() {
	ex.reports = 0
	ex.lastMeas = make(map[cell.Ref]rrc.MeasEntry)
	ex.scellIndex = make(map[int]cell.Ref)
	ex.pending = nil
	ex.lastApplied = nil
	ex.lastMod = nil
}

// releaseEvidence assembles the S1E1/S1E2 signals for a full release.
func (ex *extractor) releaseEvidence(kind ReleaseKind) Evidence {
	ev := newEvidence(kind)
	ev.Reports = ex.reports
	if ex.cur.MCG != nil {
		for _, sc := range ex.cur.MCG.SCells {
			m, seen := ex.lastMeas[sc]
			if ex.reports > 0 && !seen {
				ev.UnmeasuredSCells = append(ev.UnmeasuredSCells, sc)
			}
			if seen {
				// The sentinel is +Inf, so the first report always wins.
				if m.Meas.RSRPDBm < ev.WorstSCellRSRP {
					ev.WorstSCellRSRP = m.Meas.RSRPDBm
				}
				if m.Meas.RSRQDB <= PoorRSRQThresholdDB {
					ev.PoorSCells = append(ev.PoorSCells, sc)
				}
			}
		}
	}
	if ex.lastMod != nil {
		ev.PendingMod = ex.lastMod
	}
	return ev
}

// handle folds one message.
func (ex *extractor) handle(at time.Duration, m rrc.Message) {
	switch v := m.(type) {
	case rrc.SetupComplete:
		ex.resetONBookkeeping()
		s := cell.Set{MCG: cell.NewGroup(v.Rat, v.Cell)}
		ex.push(at, s, newEvidence(CauseNone))
	case rrc.ReestablishmentRequest:
		ev := ex.releaseEvidence(CauseReestablishment)
		ev.ReestCause = v.Cause
		if ex.cur.MCG != nil {
			ev.HandoverFrom = ex.cur.MCG.Primary
		}
		ex.push(at, cell.Idle(), ev)
	case rrc.ReestablishmentComplete:
		ex.resetONBookkeeping()
		s := cell.Set{MCG: cell.NewGroup(band.RATLTE, v.Cell)}
		ex.push(at, s, newEvidence(CauseNone))
	case rrc.Reconfig:
		ex.pending = &v
	case rrc.ReconfigComplete:
		if ex.pending != nil {
			ex.applyReconfig(at, *ex.pending)
			ex.pending = nil
		}
	case rrc.MeasReport:
		// The entries are borrowed (see sig.Sink): each is copied by
		// value into lastMeas.
		ex.reports++
		for _, e := range v.Entries {
			ex.lastMeas[e.Cell] = e
		}
	case rrc.SCGFailureInfo:
		ex.lastSCGFail = v.FailureType
		ex.scgFailAt = at
	case rrc.Release:
		ev := ex.releaseEvidence(CauseRRCRelease)
		ex.push(at, cell.Idle(), ev)
	case rrc.Exception:
		ev := ex.releaseEvidence(CauseException)
		ex.push(at, cell.Idle(), ev)
	}
}

// applyReconfig mutates the current set per a completed reconfiguration.
func (ex *extractor) applyReconfig(at time.Duration, rc rrc.Reconfig) {
	if ex.cur.IsIdle() {
		return // stale command after release; nothing to apply
	}
	next := ex.cur.Clone()
	ev := newEvidence(CauseNone)

	// 4G PCell handover: SCells are dropped; the SCG survives only if
	// the same message re-provisions it (Appendix B).
	if rc.Mobility != nil {
		ev.HandoverFrom = next.MCG.Primary
		ev.HandoverTo = *rc.Mobility
		next.MCG = cell.NewGroup(next.MCG.RAT, *rc.Mobility)
		ex.scellIndex = make(map[int]cell.Ref)
		if next.SCG != nil && !rc.KeepsSCG() {
			ev.Kind = CauseHandoverNoSCG
			next.SCG = nil
		}
	}

	// MCG SCell releases, then additions (sCellToReleaseList precedes
	// sCellToAddModList semantically: an index can be reused).
	var released, added []cell.Ref
	for _, idx := range rc.ReleaseSCells {
		if ref, ok := ex.scellIndex[idx]; ok {
			next.MCG.RemoveSCell(ref)
			released = append(released, ref)
			delete(ex.scellIndex, idx)
		}
	}
	for _, add := range rc.AddSCells {
		if old, ok := ex.scellIndex[add.Index]; ok {
			// Re-using a live index replaces its cell.
			next.MCG.RemoveSCell(old)
			released = append(released, old)
		}
		next.MCG.AddSCell(add.Cell)
		ex.scellIndex[add.Index] = add.Cell
		added = append(added, add.Cell)
	}

	// SCG management (EN-DC).
	if rc.SCGRelease && next.SCG != nil {
		ev.Kind = CauseSCGRelease
		if ex.lastSCGFail != "" && at-ex.scgFailAt < 2*time.Second {
			ev.SCGFailure = ex.lastSCGFail
		}
		next.SCG = nil
	}
	if rc.SpCell != nil {
		g := cell.NewGroup(band.RATNR, *rc.SpCell)
		for _, sc := range rc.SCGSCells {
			g.AddSCell(sc)
		}
		next.SCG = g
	}

	// Remember an intra-reconfig SCell modification for exception
	// attribution (S1E3) and expose it on the step for per-channel
	// modification accounting (Table 5).
	ex.lastMod = nil
	if len(released) > 0 && len(added) > 0 {
		mod := SCellMod{Released: released[0], Added: added[len(added)-1]}
		// Prefer a co-channel pair when one exists.
		for _, r := range released {
			for _, a := range added {
				if r.Channel == a.Channel {
					mod = SCellMod{Released: r, Added: a}
				}
			}
		}
		ex.lastMod = &mod
		ev.Mod = &mod
	}
	ex.lastApplied = &rc
	ex.lastAppliedAt = at
	ex.push(at, next, ev)
}
