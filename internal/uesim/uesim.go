// Package uesim is the run engine: it simulates one measurement run —
// a UE camped at a location, continuously downloading, exchanging RRC
// with the network over the synthetic radio field — and emits the
// NSG-style signaling log the analysis pipeline consumes.
//
// The engine implements the network- and device-side behaviours the
// paper reverse-engineers: SA SCell management with its three failure
// shapes (§5.1), and NSA master/secondary management with the
// channel-specific policies of §5.2 (blind redirects, 5G-disabled
// channels, SCG-recovery configuration cadence). Loops are never
// scripted; they emerge (or not) from the radio medians at the location
// interacting with these procedures.
package uesim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/radio"
	"github.com/mssn/loopscope/internal/rrc"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/units"
)

// defaultDuration is the length of a run whose Config.Duration is zero.
const defaultDuration = 5 * time.Minute

// Tunable procedure timings, chosen to match the instance timelines in
// the paper's appendix (SCell addition ≈ 3 s after establishment,
// ≈ 10–11 s of IDLE after the SCell-modification exception, 1 Hz
// measurement reporting).
const (
	tick                      = 100 * time.Millisecond
	reportPeriod              = time.Second
	scellAddDelay             = 3 * time.Second
	exceptionIdle             = 10500 * time.Millisecond
	releaseIdle               = 9500 * time.Millisecond
	selectDelay               = 600 * time.Millisecond
	missingReports            = 8      // reports without an SCell before release (S1E1)
	poorReports               = 12     // consecutive poor reports before release (S1E2)
	rlfThreshRSRP   units.DBm = -120.0 // PCell sample below this counts toward RLF
	rlfConsecutive            = 3      // seconds of bad samples before RLF
	hoFailRSRP      units.DBm = -123.0 // handover execution fails below this sample
	modExecFloor    units.DBm = -105.0 // SCell/PSCell activation floor
	scgExecFloor    units.DBm = -118.0
	fragileChannel            = 387410 // OPT's problematic n25 channel (F14)
	fragileMarginDB units.DB  = 6.0    // advantage that must persist on the fragile channel
	robustMarginDB  units.DB  = -10.0  // effectively always succeeds elsewhere
)

// Config describes one run.
type Config struct {
	Op       *policy.Operator
	Field    *radio.Field
	Cluster  *deploy.Cluster
	Device   *device.Profile
	Loc      geo.Point // defaults to the cluster location
	Duration time.Duration
	Seed     int64

	// Path, when non-empty, turns the run into a walking experiment
	// (§7): the UE moves along the waypoints at WalkSpeedMps, starting
	// from Loc (or the first waypoint when Loc is zero). Loops appear
	// and disappear as the radio features change under the walker, so a
	// walking run evaluates every cell's median at the walker's position
	// on each sample. A stationary run (empty Path) evaluates each
	// cell's median once, at Loc, when it starts. Both draw the same
	// fading from the run's RNG in the same order.
	Path         []geo.Point
	WalkSpeedMps float64 // default 1.4 m/s

	// NoCampingStickiness disables the stored-information re-selection
	// bonus, for the ablation showing that without it persistent loops
	// degrade into semi-persistent ones (see DESIGN.md, Calibration).
	NoCampingStickiness bool

	// Fixes applies candidate mitigations (the paper's Q3). Each field
	// targets one loop family's root cause.
	Fixes Fixes

	// Metrics, when non-nil, receives run counters (runs executed,
	// events emitted). Pure observation: the simulation consumes the
	// same RNG stream and emits the same events with or without it.
	Metrics obs.Collector
}

// Fixes are network-side configuration remedies for the loop causes of
// §5. They answer the paper's Q3: each one removes the inconsistency
// behind one loop family instead of patching its symptom.
type Fixes struct {
	// ReleaseOnlyBadApple fixes F9 ("a few bad apples ruin all"): a
	// never-reported or persistently poor SCell is released
	// individually instead of tearing down the whole MCG (kills S1E1
	// and S1E2).
	ReleaseOnlyBadApple bool
	// BlacklistFailedModTargets fixes S1E3: after an SCell modification
	// toward a candidate fails, the network stops commanding the same
	// modification instead of retrying it forever.
	BlacklistFailedModTargets bool
	// AlignHandoverPolicies fixes N2E1/N1 (F15): the RSRQ preference
	// toward the "5G-disabled"/SCG-dropping channels is removed, so the
	// PCell stops ping-ponging onto them.
	AlignHandoverPolicies bool
	// FastSCGRecovery fixes the OPV side of N2E2 (F15): fresh
	// measurement configuration is pushed immediately after an SCG
	// failure rather than on the 30-second cadence, and the failed
	// PSCell-change target is not retried.
	FastSCGRecovery bool
	// A3TimeToTriggerReports requires the A3 entering condition to hold
	// for this many consecutive reports before an SCell modification is
	// commanded — the classic time-to-trigger tuning that suppresses
	// fading-triggered modifications (another S1E3 remedy).
	A3TimeToTriggerReports int
}

// Run executes one simulated stationary run, collecting the capture in
// memory.
func Run(cfg Config) *sig.Log {
	log := &sig.Log{Events: make([]sig.Event, 0, eventsHint(cfg.Duration))}
	if err := RunToContext(context.Background(), cfg, log); err != nil {
		// A background context can neither be cancelled nor expire, and
		// RunToContext's only error channel is its context. If this ever
		// fires the capture is a torn prefix with no run-end stamp, and
		// analyzing it as a complete run would corrupt a study — fail
		// loudly instead.
		panic(fmt.Sprintf("uesim: background run aborted: %v", err))
	}
	return log
}

// eventsHint sizes the in-memory log of a run lasting d (0 for the
// default 5 minutes). A run reports once per reportPeriod and its
// procedures add about half as many events again: 5-minute runs emit
// 300–450 events, and only a few loop-heavy ones more.
func eventsHint(d time.Duration) int {
	if d == 0 {
		d = defaultDuration
	}
	return max(0, int(d/reportPeriod))*3/2 + 16
}

// runAbort is the panic sentinel that unwinds the engine when its
// context is cancelled mid-run; RunToContext converts it back into the
// context's error. Any other panic propagates untouched.
type runAbort struct{ err error }

// RunToContext executes one simulated run, emitting each event to sink
// as it happens: a *sig.Emitter renders the capture text, a
// trace.Builder folds the run into a timeline, and with a *sig.Log it
// is Run. A report's entries are lent to sink for the Append call only
// (see sig.Sink). Events arrive in strictly increasing time order. The
// run aborts between events as soon as ctx is cancelled or its deadline
// passes, and the context's error is returned. An aborted
// run has emitted a strict prefix of the uninterrupted event stream —
// cancellation never tears an event — but carries no run-end stamp, so
// its capture must be discarded, not analyzed. A nil or never-cancelled
// ctx changes nothing: the engine consumes the same RNG stream and
// emits the same events.
func RunToContext(ctx context.Context, cfg Config, sink sig.Sink) (err error) {
	if cfg.Duration == 0 {
		cfg.Duration = defaultDuration
	}
	if cfg.Device == nil {
		cfg.Device = device.OnePlus12R()
	}
	if (cfg.Loc == geo.Point{}) {
		if len(cfg.Path) > 0 {
			cfg.Loc = cfg.Path[0]
		} else {
			cfg.Loc = cfg.Cluster.Loc
		}
	}
	if cfg.WalkSpeedMps <= 0 {
		cfg.WalkSpeedMps = 1.4
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cfg.Cluster.Cells)
	e := &engine{
		cfg:     cfg,
		ctx:     ctx,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		sink:    sink,
		last:    -1,
		samples: make([]meas.Measurement, n),
		sampled: make([]bool, n),
		entries: make([]rrc.MeasEntry, 0, n),
	}
	if len(cfg.Path) == 0 {
		// A stationary UE never moves, so no cell's median changes
		// during the run.
		e.medians = make([]meas.Measurement, n)
		for i, c := range cfg.Cluster.Cells {
			e.medians[i] = cfg.Field.Median(c, cfg.Loc)
		}
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ab, ok := p.(runAbort)
		if !ok {
			panic(p)
		}
		err = ab.err
		if cfg.Metrics != nil {
			cfg.Metrics.Add("uesim.runs.cancelled", 1)
		}
	}()
	if err := ctx.Err(); err != nil {
		panic(runAbort{err})
	}
	if cfg.Op.Mode == policy.ModeSA {
		e.runSA()
	} else {
		e.runNSA()
	}
	// Stamp the run end so OFF tails are measured to the full duration.
	if e.last < cfg.Duration {
		rat := band.RATNR
		if cfg.Op.Mode == policy.ModeNSA {
			rat = band.RATLTE
		}
		sink.Append(cfg.Duration, rrc.MeasReport{Rat: rat})
		e.emitted++
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Add("uesim.runs", 1)
		cfg.Metrics.Add("uesim.events.emitted", e.emitted)
		cfg.Metrics.Observe("uesim.events.count", float64(e.emitted))
	}
	return nil
}

// engine is the shared simulation state. Its per-cell tables are
// indexed by a cell's slot, its position in Cluster.Cells; the cluster's
// cells have distinct Refs, so a slot stands for one Ref.
type engine struct {
	cfg Config
	// The engine is built inside RunToContext and discarded when it
	// returns, so this field never outlives the call that scoped the
	// context; emit is the single cancellation point and threading ctx
	// through every tick helper would only obscure that.
	//lint:ignore loopvet/ctxflow run-scoped engine, built and discarded inside RunToContext; emit is the single cancellation point
	ctx     context.Context
	rng     *rand.Rand
	sink    sig.Sink
	now     time.Duration
	last    time.Duration // timestamp of the last emitted event, -1 when none
	emitted int64         // events delivered to the sink

	// medians holds each cell's median at the run location for a
	// stationary run; nil for a walking run, whose medians move with
	// the UE.
	medians []meas.Measurement
	// samples holds the draws of the report being assembled, and
	// sampled marks the slots drawn so far; entries lists the
	// measurable ones in report order, in one buffer every report
	// refills.
	samples []meas.Measurement
	sampled []bool
	entries []rrc.MeasEntry
}

// emit appends a message at the current simulated time and advances the
// clock by one millisecond so message ordering is strict. It is also
// the cancellation point: checking the context here (not on the tick
// loop) guarantees an aborted run emitted a strict prefix of the
// uninterrupted stream.
func (e *engine) emit(m rrc.Message) {
	if err := e.ctx.Err(); err != nil {
		panic(runAbort{err})
	}
	e.sink.Append(e.now, m)
	e.emitted++
	e.last = e.now
	e.now += time.Millisecond
}

// pos returns the UE position at the current simulated time: the fixed
// run location for stationary runs, or the point reached along the walk
// path.
func (e *engine) pos() geo.Point {
	if len(e.cfg.Path) == 0 {
		return e.cfg.Loc
	}
	remaining := e.now.Seconds() * e.cfg.WalkSpeedMps
	cur := e.cfg.Loc
	for _, wp := range e.cfg.Path {
		leg := cur.Dist(wp)
		if leg >= remaining {
			if leg <= 0 {
				return wp
			}
			t := remaining / leg
			return geo.P(cur.X+t*(wp.X-cur.X), cur.Y+t*(wp.Y-cur.Y))
		}
		remaining -= leg
		cur = wp
	}
	return cur // path exhausted: the walker stands at the last waypoint
}

// slot returns c's position in Cluster.Cells.
func (e *engine) slot(c *cell.Cell) int {
	for i, cc := range e.cfg.Cluster.Cells {
		if cc == c {
			return i
		}
	}
	panic("uesim: cell " + c.Ref.String() + " is not in the run's cluster")
}

// sample draws one faded measurement of the cell in slot i at the UE
// position.
//
//loopvet:hot
func (e *engine) sample(i int) meas.Measurement {
	return e.cfg.Field.Fade(e.cfg.Cluster.Cells[i], e.median(i), e.rng)
}

// median returns the deterministic local median of the cell in slot i
// at the UE position.
//
//loopvet:hot
func (e *engine) median(i int) meas.Measurement {
	if e.medians != nil {
		return e.medians[i]
	}
	return e.cfg.Field.Median(e.cfg.Cluster.Cells[i], e.pos())
}

// measure samples the cell in slot i for the report being assembled
// and lists it when measurable, in the engine's entries buffer.
func (e *engine) measure(i int, role rrc.MeasRole) meas.Measurement {
	m := e.sample(i)
	e.samples[i], e.sampled[i] = m, true
	if m.Measurable() {
		e.entries = append(e.entries, rrc.MeasEntry{Cell: e.cfg.Cluster.Cells[i].Ref, Role: role, Meas: m})
	}
	return m
}

// measured returns the current report's draw for slot i, or false
// when the report did not sample that cell.
func (e *engine) measured(i int) (meas.Measurement, bool) {
	if !e.sampled[i] {
		return meas.Measurement{}, false
	}
	return e.samples[i], true
}

// sendReport emits the assembled measurement report. Its entries are
// lent to the sink for the Append call only (see sig.Sink): the next
// report refills the same buffer. A report that measured nothing
// carries nil entries.
func (e *engine) sendReport(rat band.RAT) {
	m := rrc.MeasReport{Rat: rat}
	if len(e.entries) > 0 {
		m.Entries = e.entries
	}
	e.emit(m)
	e.entries = e.entries[:0]
}

// jitterDur perturbs a duration by ±spread.
func (e *engine) jitterDur(d, spread time.Duration) time.Duration {
	return d + time.Duration((e.rng.Float64()*2-1)*float64(spread))
}
