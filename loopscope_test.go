package loopscope_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/mssn/loopscope"
)

// TestFacadeEndToEnd walks the public API the way the README's
// quickstart does: simulate, serialize, parse, extract, detect,
// classify, model throughput.
func TestFacadeEndToEnd(t *testing.T) {
	op := loopscope.OperatorByName("OPT")
	if op == nil || op.FullName != "T-Mobile" {
		t.Fatal("OPT profile missing")
	}
	areas := loopscope.Areas()
	if len(areas) != 11 {
		t.Fatalf("areas = %d", len(areas))
	}
	dep := loopscope.BuildDeployment(op, areas[0], 43)
	var cluster *loopscope.Cluster
	for _, cl := range dep.Clusters {
		if cl.Arch.String() == "s1e3" {
			cluster = cl
			break
		}
	}
	if cluster == nil {
		t.Skip("no s1e3 cluster at this seed")
	}

	text := loopscope.SimulateRun(loopscope.RunConfig{
		Op: op, Field: dep.Field, Cluster: cluster,
		Duration: 4 * time.Minute, Seed: 7,
	}).String()
	if !strings.Contains(text, "RRC OTA Packet") {
		t.Error("log text missing NSG framing")
	}
	parsed, err := loopscope.ParseLog(strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := loopscope.ExtractTimeline(parsed)
	if len(tl.Steps) == 0 || !tl.Steps[0].Set.IsIdle() {
		t.Fatal("timeline must start IDLE")
	}

	analysis := loopscope.Analyze(tl)
	if !analysis.HasLoop() {
		t.Skip("no loop at this seed")
	}
	loop, sub := analysis.Primary()
	if sub != loopscope.S1E3 {
		t.Errorf("subtype = %v, want S1E3", sub)
	}
	if sub.Type().String() != "S1" {
		t.Errorf("type = %v", sub.Type())
	}
	if loop.Form != loopscope.FormPersistent && loop.Form != loopscope.FormSemiPersistent {
		t.Errorf("form = %v", loop.Form)
	}

	speeds := loopscope.GenerateThroughput(tl, op, 9)
	if len(speeds) != int(4*time.Minute/time.Second) {
		t.Errorf("speed samples = %d", len(speeds))
	}
}

func TestFacadeDevicesAndModel(t *testing.T) {
	if len(loopscope.Devices()) != 6 {
		t.Error("device registry incomplete")
	}
	if loopscope.DeviceByName("OnePlus 12R") == nil {
		t.Error("12R missing")
	}
	samples := []loopscope.TrainingSample{
		{Combos: []loopscope.Combo{{PCellGapDB: 10, SCellGapDB: 2}}, Truth: 0.9},
		{Combos: []loopscope.Combo{{PCellGapDB: 10, SCellGapDB: 15}}, Truth: 0.0},
	}
	m := loopscope.FitModel(samples, loopscope.FeatureSCellGap)
	if m == nil {
		t.Fatal("FitModel nil")
	}
	if m.Predict(samples[0].Combos) < m.Predict(samples[1].Combos) {
		t.Error("model should rank the small gap higher")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := loopscope.ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("experiment catalogue = %d entries", len(ids))
	}
	st, err := loopscope.RunStudy(context.Background(),
		loopscope.StudyOptions{Seed: 1, Duration: 90 * time.Second, RunScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	batch := loopscope.ExperimentsWithStudy([]string{"table4", "nope", "fig13"}, st)
	if len(batch) != 2 || batch[0].ID != "table4" || batch[1].ID != "fig13" {
		t.Fatalf("batch = %+v, want table4 and fig13 with the unknown ID skipped", batch)
	}
	if len(batch[0].Lines) == 0 || batch[0].Values["models"] != 6 {
		t.Errorf("table4 = %v %v", batch[0].Lines, batch[0].Values)
	}
}

func TestFacadeCSVExport(t *testing.T) {
	opts := loopscope.StudyOptions{Seed: 5, Duration: 90 * time.Second, RunScale: 0.2}
	st, err := loopscope.RunStudy(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var runs strings.Builder
	if err := loopscope.ExportStudyCSV(st, &runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(runs.String(), "operator,area,city") {
		t.Errorf("runs.csv header wrong: %q", runs.String()[:40])
	}
}

func TestFacadeCoverageSweep(t *testing.T) {
	// Exercise the remaining facade wrappers.
	if loopscope.OperatorByName("nope") != nil {
		t.Error("unknown operator should be nil")
	}
	if len(loopscope.Operators()) != 3 {
		t.Error("Operators")
	}
	p := loopscope.At(3, 4)
	if p.Dist(loopscope.At(0, 0)) != 5 {
		t.Error("At/Point")
	}
	reg := loopscope.NewMetricsRegistry()
	log, err := loopscope.ParseLog(strings.NewReader("00:00:01.000 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest\n  Physical Cell ID = 1, Freq = 2\n"), reg)
	if err != nil || log.Len() != 1 {
		t.Fatalf("ParseLog: %v %d", err, log.Len())
	}
	if reg.Counter("sig.events.kept").Value() != 1 {
		t.Error("ParseLog did not flush its counters into the collector")
	}
	if a := loopscope.Analyze(loopscope.ExtractTimeline(log)); a.HasLoop() {
		t.Error("one message is not a loop")
	}
	if loopscope.DefaultRunDuration != 5*time.Minute {
		t.Error("run duration constant")
	}
	log2, err := loopscope.ParseLog(strings.NewReader(""), nil)
	if err != nil || log2.Len() != 0 {
		t.Errorf("ParseLog empty: %v %d", err, log2.Len())
	}
}
