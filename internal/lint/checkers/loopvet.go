package checkers

import "github.com/mssn/loopscope/internal/lint/analysis"

// DeterminismScope lists the packages in which every source of
// randomness or time must trace to an explicit seed/config parameter.
// These are the packages behind the simulator and the experiment
// generators — the ones whose bit-for-bit replay is the repo's value
// over live captures.
var DeterminismScope = []string{
	"internal/uesim",
	"internal/rrc",
	"internal/radio",
	"internal/deploy",
	"internal/throughput",
	"internal/faults",
	"internal/geo",
	"internal/stats",
	"internal/experiments",
}

// LayeringRules is the allowed-import-edge table for internal/
// packages (direct imports of non-test files only). A package absent
// from the table is itself a finding, so new packages must declare
// their layer. The Reason strings cite the DESIGN.md rule a violation
// breaks; docs/ANALYSIS.md renders this table for humans.
var LayeringRules = map[string]Rule{
	// Leaf vocabulary and utility packages: no internal imports.
	"band":   {Reason: "3GPP frequency machinery is a leaf vocabulary package"},
	"geo":    {Reason: "geometry is a leaf utility package"},
	"device": {Reason: "device profiles are a leaf data package"},
	"stats":  {Reason: "statistics helpers are a leaf utility package"},
	"units":  {Reason: "typed physical quantities (dBm/dB/ms/Hz/m) are the innermost vocabulary; everything above may depend on them"},
	"meas": {Allow: []string{"units"},
		Reason: "the measurement vocabulary sits on the methodology boundary and must stay simulator-free"},
	"obs": {Reason: "observability is a leaf utility layer: metrics observe every package but may never influence domain behaviour"},
	"viz": {Reason: "terminal rendering is a leaf utility package"},

	"faults": {Allow: []string{"obs"},
		Reason: "fault injection mutates raw capture text and may not know about any domain package; it only reports what it injected"},

	"cell": {Allow: []string{"band", "geo", "units"},
		Reason: "cell identity and set algebra build only on frequency and geometry vocabulary"},
	"rrc": {Allow: []string{"band", "cell", "meas", "units"},
		Reason: "the RRC message model is shared by emitter and parser, so it must stay simulator-free"},

	// The methodology boundary (§4): the analysis side consumes parsed
	// NSG-style logs and never touches simulator internals (DESIGN.md:
	// "analysis never touches simulator internals — it parses the logs").
	"sig": {Allow: []string{"band", "cell", "meas", "obs", "rrc", "units"},
		Reason: "the log format IS the methodology boundary; it may not import anything simulator-side"},
	"trace": {Allow: []string{"band", "cell", "meas", "rrc", "sig", "units"},
		Reason: "Appendix-B timeline folding works on parsed logs only (§4 methodology)"},
	"core": {Allow: []string{"band", "cell", "meas", "obs", "rrc", "stats", "trace", "units"},
		Reason: "detection/classification consumes only the parsed log timeline, like the paper's §4 pipeline; obs is observation-only (the stream detector's window counters)"},

	// Simulator side.
	"radio": {Allow: []string{"band", "cell", "geo", "meas", "units"},
		Reason: "the synthetic radio environment uses identity/geometry/measurement vocabulary but not policy or the run engine"},
	"policy": {Allow: []string{"band", "meas", "units"},
		Reason: "operator policy is pure configuration over the measurement vocabulary"},
	"deploy": {Allow: []string{"band", "cell", "geo", "meas", "policy", "radio", "units"},
		Reason: "deployments compose cells, geometry, policy and the radio field"},
	"throughput": {Allow: []string{"band", "cell", "meas", "policy", "stats", "trace", "units"},
		Reason: "the speed model maps RRC states (from the parsed timeline) to throughput"},
	"uesim": {Allow: []string{"band", "cell", "deploy", "device", "geo", "meas", "obs", "policy", "radio", "rrc", "sig", "units"},
		Reason: "the run engine drives UE ↔ network exchanges and emits logs; it sits above every simulator layer"},

	"checkpoint": {Reason: "the durable run journal is a leaf persistence utility: it stores opaque keyed payloads and may not know the domain"},

	// Orchestration.
	"campaign": {Allow: []string{"band", "cell", "checkpoint", "core", "deploy", "device", "faults", "geo", "meas",
		"obs", "policy", "rrc", "sig", "throughput", "trace", "uesim", "units"},
		Reason: "the campaign runner orchestrates simulation and analysis end-to-end"},
	"experiments": {Allow: []string{"band", "campaign", "cell", "core", "deploy", "device", "faults", "geo",
		"meas", "policy", "radio", "sig", "stats", "throughput", "trace", "uesim", "viz", "units"},
		Reason: "experiment generators may reach every layer to reproduce the paper's tables and figures"},
	"report": {Allow: []string{"campaign", "core", "experiments", "stats"},
		Reason: "reporting renders campaign and experiment output"},
}

// LayeringExempt lists internal/ path prefixes outside the table:
// loopvet's own machinery is tooling, not part of the reproduction.
var LayeringExempt = []string{"lint"}

// ClosedEnums lists the enumerations whose switches must be handled
// exhaustively — most importantly the §5 seven-sub-type cause taxonomy
// (core.Subtype) and its triggers (trace.ReleaseKind).
var ClosedEnums = []Enum{
	{Pkg: "internal/core", Type: "LoopType"},
	{Pkg: "internal/core", Type: "Subtype"},
	{Pkg: "internal/core", Type: "Form"},
	{Pkg: "internal/core", Type: "StreamEventKind"},
	{Pkg: "internal/trace", Type: "ReleaseKind"},
	{Pkg: "internal/cell", Type: "State"},
	{Pkg: "internal/meas", Type: "EventKind"},
	{Pkg: "internal/meas", Type: "Quantity"},
	{Pkg: "internal/band", Type: "RAT"},
	{Pkg: "internal/deploy", Type: "Archetype"},
	{Pkg: "internal/throughput", Type: "Workload"},
	{Pkg: "internal/rrc", Type: "ReestCause"},
	{Pkg: "internal/rrc", Type: "MeasRole"},
	{Pkg: "internal/obs", Type: "Stage"},
	{Pkg: "internal/campaign", Type: "FailureKind"},
}

// ApprovedFloatCmp lists the epsilon helpers whose bodies may compare
// floats directly.
var ApprovedFloatCmp = []string{
	"internal/meas.ApproxEqual",
	"internal/meas.ApproxEqualEps",
	"internal/units.ApproxEqual",
	"internal/units.ApproxEqualEps",
}

// Suite returns the production loopvet analyzer set for the module.
func Suite(modulePath string) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism(DeterminismScope),
		ErrFlow(),
		Layering(modulePath, LayeringRules, LayeringExempt),
		Exhaustive(ClosedEnums),
		Floatcmp(ApprovedFloatCmp),
		UnitCheck(),
		RngFlow(),
		CtxFlow(),
		LockCheck(),
		HotAlloc(),
	}
}

// perGraph memoizes a module-wide summary on the call graph it was
// computed from: every pass of one driver run shares a graph, so the
// summary is built once per run, not once per package.
func perGraph[T any](build func(*analysis.CallGraph) T) func(*analysis.CallGraph) T {
	var (
		last *analysis.CallGraph
		val  T
	)
	return func(g *analysis.CallGraph) T {
		if g != last {
			last, val = g, build(g)
		}
		return val
	}
}
