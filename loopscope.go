// Package loopscope is a library for detecting, classifying, measuring
// and predicting 5G ON-OFF loops — the phenomenon studied in "An
// In-Depth Look into 5G ON-OFF Loops in the Wild" (IMC '25): operational
// 5G networks that repeatedly turn a device's 5G radio access off and
// back on under unchanged radio conditions, caused by inconsistent
// RRC triggers.
//
// The library has three layers:
//
//   - Analysis: parse an NSG-style signaling log (ParseLog), fold it
//     into a serving-cell-set timeline (ExtractTimeline), then detect
//     ON-OFF loops, classify their causes and compute per-cycle impact
//     metrics (Analyze). This layer works on any capture in the
//     supported text format.
//
//   - Simulation: a full RRC-procedure-level simulator of 5G SA and 5G
//     NSA radio access (SimulateRun, RunStudy) over a synthetic radio
//     environment with the three operator policy profiles of the study,
//     used to regenerate every experiment of the paper.
//
//   - Prediction: the §6 loop-probability model (FitModel, Model) that
//     maps RSRP features of a location's cellset combinations to a loop
//     probability.
//
// The exported names below alias the implementation packages so the
// whole surface is reachable from this one import.
package loopscope

import (
	"context"
	"io"
	"math/rand"

	"github.com/mssn/loopscope/internal/campaign"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/checkpoint"
	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/experiments"
	"github.com/mssn/loopscope/internal/faults"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/obs"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/throughput"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// Core analysis types.
type (
	// Log is a parsed signaling capture.
	Log = sig.Log
	// LogSink receives signaling events one at a time, from the
	// simulator or from ParseLogTo: a *Log collects them, a *LogEmitter
	// renders them as capture text, a *TimelineBuilder folds them into
	// a timeline. A measurement report's Entries are lent to Append for
	// the call only; a sink that keeps them copies them, as *Log does.
	LogSink = sig.Sink
	// LogEmitter renders events to an io.Writer as they arrive, so a
	// run can be written out as capture text without first collecting
	// it in a *Log.
	LogEmitter = sig.Emitter
	// Timeline is the serving-cell-set sequence extracted from a log.
	Timeline = trace.Timeline
	// CellSet is one serving cell set (MCG + optional SCG).
	CellSet = cell.Set
	// CellRef identifies a cell as ID@FreqChannelNo.
	CellRef = cell.Ref
	// Loop is one detected ON-OFF loop.
	Loop = core.Loop
	// Subtype is a loop sub-type (S1E1..N2E2).
	Subtype = core.Subtype
	// LoopType is a loop type (S1, N1, N2).
	LoopType = core.LoopType
	// Form distinguishes persistent from semi-persistent loops.
	Form = core.Form
	// CycleMetrics quantifies one ON-OFF cycle.
	CycleMetrics = core.CycleMetrics
	// Analysis bundles the loops of one run.
	Analysis = core.Analysis
	// TimelineBuilder folds capture events into a Timeline incrementally
	// (it is a LogSink); TeeSteps exposes each step as it is appended.
	TimelineBuilder = trace.Builder
	// StreamLoopDetector detects loops incrementally from teed timeline
	// steps, with bounded memory and live lifecycle events.
	StreamLoopDetector = core.StreamDetector
	// StreamDetectorConfig configures a StreamLoopDetector.
	StreamDetectorConfig = core.StreamConfig
	// StreamLoopEvent is one incremental detection announcement: the
	// loop as the detector has it so far, and its sub-type.
	StreamLoopEvent = core.StreamEvent
)

// Stream detection lifecycle events.
const (
	StreamLoopConfirmed = core.StreamConfirmed
	StreamLoopRep       = core.StreamRep
	StreamLoopClosed    = core.StreamClosed
)

// Loop sub-types (§5).
const (
	S1E1 = core.S1E1 // SA: SCell never reported
	S1E2 = core.S1E2 // SA: SCell very poor, no command
	S1E3 = core.S1E3 // SA: SCell modification failure
	N1E1 = core.N1E1 // NSA: 4G PCell radio link failure
	N1E2 = core.N1E2 // NSA: 4G PCell handover failure
	N2E1 = core.N2E1 // NSA: handover drops the SCG
	N2E2 = core.N2E2 // NSA: SCG failure handling
)

// Sequence forms (Fig. 4).
const (
	FormNoLoop         = core.FormNoLoop
	FormPersistent     = core.FormPersistent
	FormSemiPersistent = core.FormSemiPersistent
)

// Simulation types.
type (
	// Operator is a network operator policy profile (OPT/OPA/OPV).
	Operator = policy.Operator
	// Device is a phone capability profile (Table 4).
	Device = device.Profile
	// AreaSpec describes a test area (A1–A11).
	AreaSpec = deploy.AreaSpec
	// Deployment is an area's synthetic radio deployment.
	Deployment = deploy.Deployment
	// Cluster is the calibrated cell neighborhood of one location.
	Cluster = deploy.Cluster
	// RunConfig configures one simulated run.
	RunConfig = uesim.Config
	// Point is a position in an area's local metric frame (meters).
	Point = geo.Point
	// StudyOptions scales a measurement study.
	StudyOptions = campaign.Options
	// Study is a full multi-area measurement dataset.
	Study = campaign.Study
	// Record is one run's analyzed outcome within a study.
	Record = campaign.Record
	// ThroughputSample is one download-speed observation.
	ThroughputSample = throughput.Sample
)

// Prediction types (§6).
type (
	// Model is the fitted loop-probability predictor.
	Model = core.Model
	// Combo carries one cellset combination's radio features.
	Combo = core.Combo
	// TrainingSample pairs features with a measured loop probability.
	TrainingSample = core.Sample
	// FeatureKind selects the model's radio feature.
	FeatureKind = core.FeatureKind
)

// Prediction features.
const (
	FeatureSCellGap  = core.FeatureSCellGap
	FeatureWorstRSRP = core.FeatureWorstRSRP
)

// ParseLog reads an NSG-style signaling log. Parsing counters flush
// into c when the parse completes; a nil c collects nothing.
func ParseLog(r io.Reader, c MetricsCollector) (*Log, error) { return sig.ParseObserved(r, c) }

// Salvage reports what lenient parsing kept and discarded from a
// damaged capture.
type Salvage = sig.Salvage

// ParseLogLenient reads a possibly corrupted NSG-style log in salvage
// mode: malformed records are quarantined into the Salvage report and
// parsing resyncs at the next header instead of aborting. The error is
// non-nil only when the reader itself fails. Parsing counters flush
// into c as in ParseLog.
func ParseLogLenient(r io.Reader, c MetricsCollector) (*Log, *Salvage, error) {
	return sig.ParseLenientObserved(r, c)
}

// Observability. A MetricsRegistry collects counters, gauges,
// fixed-bucket histograms and per-run stage spans from the pipeline
// (set StudyOptions.Metrics or RunConfig.Metrics, or pass it to the
// parse functions) and snapshots to stable, timestamp-free JSON.
// Metrics are pure observation: every study record and experiment
// output is byte-identical with the collector enabled or disabled.
type (
	// MetricsCollector is the observation sink the pipeline accepts;
	// nil disables collection at zero cost.
	MetricsCollector = obs.Collector
	// MetricsRegistry is the live collector implementation.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a registry's stable point-in-time state.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ParseLogTo is ParseLog (or, with lenient, ParseLogLenient)
// delivering every kept event to sink as it is parsed instead of
// collecting a Log. With a TimelineBuilder as the sink, parsing and
// timeline extraction run as one fused pass; add
// TimelineBuilder.TeeSteps into a StreamLoopDetector and loop
// detection joins the same pass — the pipeline loopctl runs. A strict
// parse stops at the first malformed record with ParseLog's error.
func ParseLogTo(r io.Reader, lenient bool, c MetricsCollector, sink LogSink) (*Salvage, error) {
	return sig.ParseTo(r, lenient, c, sink)
}

// NewTimelineBuilder returns a TimelineBuilder whose timeline starts,
// like every extracted timeline, with an IDLE step at t=0.
func NewTimelineBuilder() *TimelineBuilder { return trace.NewBuilder() }

// NewStreamLoopDetector returns an incremental loop detector; feed it
// timeline steps via TimelineBuilder.TeeSteps (or Push directly) and
// finish with FinishAnalysis over the finished timeline. Analyze runs
// the same detector over a finished timeline.
func NewStreamLoopDetector(cfg StreamDetectorConfig) *StreamLoopDetector {
	return core.NewStreamDetector(cfg)
}

// Capture fault injection (testing analysis pipelines against the
// artifacts of real-world damaged captures).
type (
	// FaultRates configures per-fault corruption probabilities.
	FaultRates = faults.Rates
	// FaultInjector deterministically corrupts an emitted capture.
	FaultInjector = faults.Injector
)

// NewFaultInjector returns a seeded capture-impairment injector.
func NewFaultInjector(seed int64, rates FaultRates) *FaultInjector {
	return faults.New(seed, rates)
}

// UniformFaults spreads one per-line fault budget across the line-level
// fault classes; FaultProfile adds the structural faults (clock jumps,
// reordering, logger restarts, truncation) at proportional rates.
func UniformFaults(rate float64) FaultRates { return faults.Uniform(rate) }

// FaultProfile is the full "field capture" impairment preset.
func FaultProfile(rate float64) FaultRates { return faults.Profile(rate) }

// ExtractTimeline folds a log into its serving-cell-set timeline
// (Appendix B methodology).
func ExtractTimeline(l *Log) *Timeline { return trace.Extract(l) }

// Analyze finds every ON-OFF loop in a timeline (Fig. 4) and
// classifies each one's sub-type (Figs. 13–15).
func Analyze(tl *Timeline) Analysis { return core.Analyze(tl) }

// Operators returns the three operator profiles of the study.
func Operators() []*Operator { return policy.All() }

// OperatorByName returns OPT, OPA or OPV (nil otherwise).
func OperatorByName(name string) *Operator { return policy.ByName(name) }

// Devices returns the six phone profiles of Table 4.
func Devices() []*Device { return device.All() }

// DeviceByName returns a phone profile by its Table 4 name.
func DeviceByName(name string) *Device { return device.ByName(name) }

// At constructs a Point (meters east/north of the area origin).
func At(x, y float64) Point { return geo.P(x, y) }

// Areas returns the 11 test-area specifications.
func Areas() []AreaSpec { return deploy.Areas() }

// BuildDeployment constructs an area's synthetic deployment.
func BuildDeployment(op *Operator, area AreaSpec, seed int64) *Deployment {
	return deploy.Build(op, area, seed)
}

// SimulateRun executes one stationary run and returns its signaling
// capture; analyze it with Analyze(ExtractTimeline(log)).
func SimulateRun(cfg RunConfig) *Log { return uesim.Run(cfg) }

// NewLogEmitter returns a LogSink that renders events to w in capture
// format. Call Close when done to flush and recycle its buffers; the
// first write error sticks and is returned from Close.
func NewLogEmitter(w io.Writer) *LogEmitter { return sig.NewEmitter(w) }

// Study resilience (see docs/RESILIENCE.md). A study can stream its
// records into a StudySink as it executes, journal every completed run
// into a checkpoint file, and — after a crash or cancellation — resume
// from that journal to a byte-identical dataset.
type (
	// StudySink receives every completed run record in deterministic
	// order while a study executes (StudyOptions.Sink).
	StudySink = campaign.Sink
	// CheckpointSalvage reports what opening a damaged checkpoint
	// journal kept and discarded.
	CheckpointSalvage = checkpoint.Salvage
)

// NewJSONLStudySink returns a StudySink that appends each record to w
// as one JSON line (decode with DecodeStudyRecord). The writer is not
// closed; the caller owns its lifecycle.
func NewJSONLStudySink(w io.Writer) StudySink { return campaign.NewJSONLSink(w) }

// RunStudy executes the full measurement study across all areas under
// ctx, honouring the checkpoint and sink options. On cancellation it
// drains gracefully — in-flight runs abort, finished work stays
// checkpointed — and returns the partial study with the cause.
func RunStudy(ctx context.Context, opts StudyOptions) (*Study, error) {
	return campaign.RunContext(ctx, opts)
}

// ResumeStudy re-runs the study on top of the checkpoint journal at
// path: journaled runs are replayed instead of executed, a damaged
// journal is salvaged first (the report says what was discarded), and
// the result is byte-identical to an uninterrupted run with the same
// options at any worker count.
func ResumeStudy(ctx context.Context, opts StudyOptions, path string) (*Study, *CheckpointSalvage, error) {
	return campaign.Resume(ctx, opts, path)
}

// EncodeStudyRecord returns one record in the canonical wire form that
// checkpoint journals and JSONL sinks hold: the bytes json.Marshal
// writes for the record's wire schema (docs/FORMAT.md), written
// straight from the record with no reflection.
func EncodeStudyRecord(rec *Record) ([]byte, error) { return campaign.EncodeRecord(rec) }

// DecodeStudyRecord is EncodeStudyRecord's inverse; the decoded record
// is deep-equal to the encoded one and copies every string it keeps, so
// it does not pin data. The canonical form EncodeStudyRecord writes is
// read in one pass; any other JSON layout of a record (re-indented,
// members reordered) is decoded by encoding/json, with the same result.
func DecodeStudyRecord(data []byte) (*Record, error) { return campaign.DecodeRecord(data) }

// ExportStudyCSV writes the study as three CSV tables (runs, loop
// cycles, locations) into the given writers; pass nil to skip a table.
// The format mirrors the paper's released dataset.
func ExportStudyCSV(st *Study, runs, loops, locations io.Writer) error {
	if runs != nil {
		if err := st.WriteRunsCSV(runs); err != nil {
			return err
		}
	}
	if loops != nil {
		if err := st.WriteLoopsCSV(loops); err != nil {
			return err
		}
	}
	if locations != nil {
		if err := st.WriteLocationsCSV(locations); err != nil {
			return err
		}
	}
	return nil
}

// GenerateThroughput models the download-speed series of a run. The
// same timeline and seed always produce the same series.
func GenerateThroughput(tl *Timeline, op *Operator, seed int64) []ThroughputSample {
	return throughput.Generate(tl, op, rand.New(rand.NewSource(seed)))
}

// FitModel trains the §6 loop-probability model by MSE minimization.
func FitModel(samples []TrainingSample, feature FeatureKind) *Model {
	return core.Fit(samples, feature)
}

// ExperimentResult is one regenerated table or figure.
type ExperimentResult struct {
	ID     string
	Title  string
	Lines  []string
	Values map[string]float64
}

// ExperimentsWithStudy regenerates the paper's tables and figures by
// ID (e.g. "fig6", "table5"; see ExperimentIDs for the catalogue) from
// one study the caller ran (RunStudy) or resumed (ResumeStudy). Unknown
// IDs are skipped; nil renders everything in presentation order.
func ExperimentsWithStudy(ids []string, st *Study) []ExperimentResult {
	var gens []experiments.Generator
	if ids == nil {
		gens = experiments.All()
	} else {
		for _, id := range ids {
			if g, ok := experiments.ByID(id); ok {
				gens = append(gens, g)
			}
		}
	}
	ctx := experiments.NewContextWithStudy(st)
	out := make([]ExperimentResult, 0, len(gens))
	for _, g := range gens {
		res := g.Run(ctx)
		out = append(out, ExperimentResult{ID: g.ID, Title: g.Title, Lines: res.Lines, Values: res.Values})
	}
	return out
}

// ExperimentIDs lists every reproducible table/figure ID with a title.
func ExperimentIDs() map[string]string {
	out := map[string]string{}
	for _, g := range experiments.All() {
		out[g.ID] = g.Title
	}
	return out
}

// DefaultRunDuration is the stationary-run length of the study (§4.1).
const DefaultRunDuration = campaign.DefaultDuration
