package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/campaign"
)

// fullCtx is the context every finding assertion below shares: the
// study at full paper scale (5-minute runs, all runs per location), run
// once on first use.
var fullCtx = sync.OnceValues(func() (*Context, error) {
	st, err := campaign.RunContext(context.Background(), campaign.Options{Seed: 42})
	if err != nil {
		return nil, err
	}
	return NewContextWithStudy(st), nil
})

// full returns fullCtx, failing the test when its study failed.
func full(t *testing.T) *Context {
	t.Helper()
	c, err := fullCtx()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// val fetches a named metric from an experiment, failing loudly when
// the metric is missing.
func val(t *testing.T, id, key string) float64 {
	t.Helper()
	g, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	res := g.Run(full(t))
	v, ok := res.Values[key]
	if !ok {
		t.Fatalf("%s: metric %q missing (have %v)", id, key, sortedKeys(res.Values))
	}
	return v
}

// between asserts lo ≤ v ≤ hi.
func between(t *testing.T, name string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.3f, want in [%.3f, %.3f]", name, v, lo, hi)
	}
}

// TestFindingF1F2LoopsCommon — loops occur in roughly half the runs
// with every operator and are mostly persistent (Fig. 6).
func TestFindingF1F2LoopsCommon(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	for _, op := range []string{"OPT", "OPA", "OPV"} {
		loop := val(t, "fig6", "loop_ratio_"+op)
		semi := val(t, "fig6", "semi_ratio_"+op)
		between(t, op+" loop ratio", loop, 0.35, 0.72)
		if semi > loop/2 {
			t.Errorf("%s: semi-persistent share %.2f should be the minority of %.2f", op, semi, loop)
		}
	}
	// Semi-persistent loops are rarest on OPT (the paper rarely sees
	// II-SP there).
	if sOPT, sOPA := val(t, "fig6", "semi_ratio_OPT"), val(t, "fig6", "semi_ratio_OPA"); sOPT > sOPA {
		t.Errorf("OPT semi ratio %.3f should be below OPA's %.3f", sOPT, sOPA)
	}
}

// TestFindingF2WidelyObserved — loops at a large portion of locations
// (Fig. 8: 20/25 in A1, likelihood >50% at ~13, 100% at a handful).
func TestFindingF2WidelyObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	between(t, "A1 locations with loops", val(t, "fig8", "with_loops"), 16, 25)
	between(t, "A1 >50% likelihood", val(t, "fig8", "over50"), 9, 20)
	between(t, "A1 always-loop locations", val(t, "fig8", "always"), 2, 12)
}

// TestFindingF3CycleTimes — cycles every several tens of seconds with a
// noticeable OFF share; operator ordering OPA < OPT < OPV (Fig. 10).
func TestFindingF3CycleTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	cOPT := val(t, "fig10", "cycle_median_OPT")
	cOPA := val(t, "fig10", "cycle_median_OPA")
	cOPV := val(t, "fig10", "cycle_median_OPV")
	between(t, "OPT cycle median", cOPT, 15, 60)
	between(t, "OPA cycle median", cOPA, 5, 40)
	between(t, "OPV cycle median", cOPV, 20, 80)
	if !(cOPA < cOPT && cOPT < cOPV) {
		t.Errorf("cycle ordering want OPA<OPT<OPV, got %.1f %.1f %.1f", cOPA, cOPT, cOPV)
	}
	// OPT OFF around 10–15 s; OPA below 5 s.
	between(t, "OPT OFF median", val(t, "fig10", "off_median_OPT"), 8, 16)
	between(t, "OPA OFF median", val(t, "fig10", "off_median_OPA"), 0.3, 5)
	// OPT and OPV lose a substantial share; OPA least impacted (>7.4%
	// vs >22% in the paper).
	if rT, rA := val(t, "fig10", "off_ratio_median_OPT"), val(t, "fig10", "off_ratio_median_OPA"); rT < rA {
		t.Errorf("OPT OFF ratio %.2f should exceed OPA's %.2f", rT, rA)
	}
}

// TestFindingF4SpeedLoss — OPT is fastest when ON and suspends data
// when OFF; the NSA operators degrade less (Fig. 11).
func TestFindingF4SpeedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	onOPT := val(t, "fig11", "on_median_OPT")
	onOPA := val(t, "fig11", "on_median_OPA")
	onOPV := val(t, "fig11", "on_median_OPV")
	between(t, "OPT ON median", onOPT, 120, 260)
	between(t, "OPA ON median", onOPA, 10, 60)
	between(t, "OPV ON median", onOPV, 60, 160)
	if !(onOPT > onOPV && onOPV > onOPA) {
		t.Errorf("ON ordering want OPT>OPV>OPA, got %.0f %.0f %.0f", onOPT, onOPV, onOPA)
	}
	if off := val(t, "fig11", "off_median_OPT"); off > 2 {
		t.Errorf("OPT OFF median %.1f Mbps, want ~0 (data suspended in IDLE)", off)
	}
	if off := val(t, "fig11", "off_median_OPA"); off < 5 {
		t.Errorf("OPA OFF median %.1f Mbps, want a 4G floor", off)
	}
}

// TestFindingF5F6Devices — NSA loops on (almost) all models except the
// OnePlus 10 Pro on OPA; SA loops only on the OnePlus 12R (Fig. 12,
// §4.4 — the SA side is asserted in uesim's device tests).
func TestFindingF5F6Devices(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	g, _ := ByID("fig12")
	res := g.Run(full(t))
	for _, op := range []string{"OPA", "OPV"} {
		for _, dev := range []string{"OnePlus 13R", "OnePlus 13", "OnePlus 12R", "Samsung S23", "Google Pixel 5"} {
			r := res.Values["ratio_"+op+"_"+dev]
			if r < 0.4 {
				t.Errorf("%s/%s mean loop ratio = %.2f, want ≥ 0.4 (F5)", op, dev, r)
			}
		}
	}
	if r := res.Values["ratio_OPA_OnePlus 10 Pro"]; r != 0 {
		t.Errorf("OnePlus 10 Pro on OPA loops (%.2f) but should be 4G-only", r)
	}
}

// TestFindingF7F13Breakdown — three loop types with seven sub-types;
// S1E3 dominates OPT (except A2 where S1E2 surges); N2 dominates the
// NSA operators; N1E2 never appears on OPV (Figs. 13, 16).
func TestFindingF7F13Breakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	g, _ := ByID("fig16")
	res := g.Run(full(t))
	get := func(key string) float64 { return res.Values[key] }

	between(t, "OPT S1E3 share", get("share_OPT_S1E3"), 0.45, 0.8)
	if get("share_OPT_S1E3") <= get("share_OPT_S1E2") || get("share_OPT_S1E3") <= get("share_OPT_S1E1") {
		t.Error("S1E3 must dominate OPT loops (F13)")
	}
	// A2's poor 387410 coverage boosts S1E1/S1E2 beyond other areas.
	if get("share_A2_S1E3") >= get("share_A1_S1E3") {
		t.Error("A2 should be less S1E3-dominated than A1 (F13 exception)")
	}
	for _, op := range []string{"OPA", "OPV"} {
		n2 := get("share_"+op+"_N2E1") + get("share_"+op+"_N2E2")
		between(t, op+" N2 share", n2, 0.6, 1.0)
	}
	if get("share_OPV_N1E2") != 0 {
		t.Error("N1E2 must not appear on OPV (F13)")
	}
	// N2E2 concentrates in A8 and A11.
	if get("share_A8_N2E2") <= get("share_A6_N2E2") {
		t.Error("A8 should be more N2E2-heavy than A6")
	}
	if get("share_A11_N2E2") <= get("share_A9_N2E2") {
		t.Error("A11 should be more N2E2-heavy than A9")
	}
}

// TestFindingF14ProblemChannels — OPT's loop instances concentrate on
// channel 387410; the modification-failure ratio there is an order of
// magnitude above every other channel (Table 5).
func TestFindingF14ProblemChannels(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	use := val(t, "table5", "loop_use_387410")
	between(t, "387410 loop usage", use, 0.6, 1.0)
	if nl := val(t, "table5", "noloop_use_387410"); use < 2*nl {
		t.Errorf("387410 loop usage %.2f should far exceed no-loop usage %.2f", use, nl)
	}
	fail := val(t, "table5", "mod_fail_387410")
	for _, ch := range []string{"398410", "501390", "521310"} {
		if other := val(t, "table5", "mod_fail_"+ch); other > fail/5 {
			t.Errorf("failure ratio on %s (%.2f) should be far below 387410's (%.2f)", ch, other, fail)
		}
	}
	// F15/Fig18: the NSA problem channels stand out in N2E1 instances.
	for _, op := range []string{"OPA", "OPV"} {
		loopShare := val(t, "fig18", "n2e1_problem_share_"+op)
		noLoopShare := val(t, "fig18", "noloop_problem_share_"+op)
		if loopShare < noLoopShare+0.1 {
			t.Errorf("%s problem channel: N2E1 share %.2f vs no-loop %.2f, want clear separation",
				op, loopShare, noLoopShare)
		}
	}
}

// TestFindingF15OffTimes — policy-driven OFF-time differences: OPV's
// N2E1 is sub-second, OPA's is longer; OPV's N2E2 waits in multiples of
// 30 s while OPA recovers within seconds (Fig. 19).
func TestFindingF15OffTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	opvN2E1 := val(t, "fig19", "off_med_OPV_N2E1")
	opaN2E1 := val(t, "fig19", "off_med_OPA_N2E1")
	between(t, "OPV N2E1 OFF median", opvN2E1, 0.2, 1.5)
	if opaN2E1 <= opvN2E1 {
		t.Errorf("OPA N2E1 OFF (%.1f) should exceed OPV's (%.1f)", opaN2E1, opvN2E1)
	}
	between(t, "OPV N2E2 ≥30s share", val(t, "fig19", "n2e2_over30_OPV"), 0.45, 0.85)
	if v := val(t, "fig19", "n2e2_over30_OPA"); v > 0.05 {
		t.Errorf("OPA N2E2 ≥30s share = %.2f, want ~0", v)
	}
}

// TestFindingF16F17GapImpact — loop probability anticorrelates with the
// SCell RSRP gap; target-combination usage follows a logistic in the
// PCell gap (Fig. 21).
func TestFindingF16F17GapImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	rho := val(t, "fig21", "spearman_scell")
	between(t, "Spearman(SCell gap, prob)", rho, -1.0, -0.4)
	if small, large := val(t, "fig21", "prob_small_gap"), val(t, "fig21", "prob_large_gap"); small < large+0.2 {
		t.Errorf("small-gap probability %.2f should clearly exceed large-gap %.2f (F16)", small, large)
	}
	between(t, "Spearman(PCell gap, usage)", val(t, "fig21", "spearman_pcell_usage"), 0.4, 1.0)
	between(t, "usage at zero gap", val(t, "fig21", "usage_at_0"), 0.35, 0.65)
}

// TestFindingF18Prediction — the fitted model predicts most sparse
// locations within ±25%, and the S1 extension stays useful (Fig. 22).
func TestFindingF18Prediction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	between(t, "S1E3 within ±25%", val(t, "fig22", "s1e3_within25"), 0.6, 1.0)
	between(t, "S1E3 within ±10%", val(t, "fig22", "s1e3_within10"), 0.3, 1.0)
	between(t, "S1 within ±25%", val(t, "fig22", "s1_within25"), 0.5, 1.0)
	between(t, "S1 within ±30%", val(t, "fig22", "s1_within30"), 0.55, 1.0)
}

// TestFindingF17Coverage — S1E1/S1E2 instances sit on far weaker 387410
// cells than S1E3 and no-loop instances, and A2's 387410 coverage is
// the worst (Fig. 17).
func TestFindingF17Coverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	s1e1 := val(t, "fig17", "serving_median_S1E1")
	s1e2 := val(t, "fig17", "serving_median_S1E2")
	s1e3 := val(t, "fig17", "serving_median_S1E3")
	noLoop := val(t, "fig17", "serving_median_noloop")
	if !(s1e1 < s1e2 && s1e2 < s1e3) {
		t.Errorf("serving 387410 medians want S1E1 < S1E2 < S1E3: %.1f %.1f %.1f", s1e1, s1e2, s1e3)
	}
	if diff := s1e3 - noLoop; diff < -4 || diff > 4 {
		t.Errorf("S1E3 median (%.1f) should be comparable to no-loop (%.1f)", s1e3, noLoop)
	}
	a2 := val(t, "fig17", "area_median_A2")
	a1 := val(t, "fig17", "area_median_A1")
	if a2 >= a1-3 {
		t.Errorf("A2's 387410 coverage (%.1f) should be clearly worse than A1's (%.1f)", a2, a1)
	}
}

// TestShowcaseWalkthrough — the §3 example regenerates: sub-second to
// minute-scale loop with the intra-channel modification failure, ~200
// Mbps when ON and 0 when OFF (Figs. 1b, 3; Table 2).
func TestShowcaseWalkthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	between(t, "ON median Mbps", val(t, "fig1b", "on_median_mbps"), 120, 260)
	if off := val(t, "fig1b", "off_median_mbps"); off > 2 {
		t.Errorf("OFF median = %.1f Mbps, want ~0", off)
	}
	between(t, "OFF dips in 420s", val(t, "fig1b", "off_dips"), 4, 20)
	if val(t, "fig3", "is_s1e3") != 1 {
		t.Error("showcase loop should classify as S1E3")
	}
	between(t, "showcase pair gap", val(t, "table2", "pair_gap_db"), 0, 8)
	// The dense map peaks high and fades at the edges (Fig. 20).
	if val(t, "fig20", "max_prob") < 0.6 {
		t.Error("dense map should contain high-probability points")
	}
	if val(t, "fig20", "edge_mean_prob") > val(t, "fig20", "max_prob") {
		t.Error("probability should fade toward the region edge")
	}
}

// TestAllExperimentsProduceOutput is the cheap smoke test kept from
// development: every generator runs and emits lines at reduced scale.
func TestAllExperimentsProduceOutput(t *testing.T) {
	st, err := campaign.RunContext(context.Background(),
		campaign.Options{Seed: 42, Duration: 150 * time.Second, RunScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c := NewContextWithStudy(st)
	for _, g := range All() {
		res := g.Run(c)
		if len(res.Lines) == 0 {
			t.Errorf("%s produced no output", g.ID)
		}
		if res.ID != g.ID {
			t.Errorf("generator %s returned ID %s", g.ID, res.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should reject unknown IDs")
	}
}

// TestFindingF12Regression — the historical A2-B1 loop reproduces under
// legacy thresholds and is absent under the corrected ones.
func TestFindingF12Regression(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	legacy := val(t, "f12", "legacy_loops")
	current := val(t, "f12", "current_loops")
	runs := val(t, "f12", "runs")
	if legacy < runs*0.7 {
		t.Errorf("legacy thresholds looped in %v/%v runs, want most", legacy, runs)
	}
	if current != 0 {
		t.Errorf("corrected thresholds looped in %v runs, want 0 (F12)", current)
	}
}

// TestFindingWalk — §7: walking through a loop site, releases cluster
// near the site and vanish at the edges.
func TestFindingWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	mid := val(t, "walk", "mid_releases")
	edge := val(t, "walk", "edge_releases")
	if mid < 1 {
		t.Errorf("no releases near the site (mid=%v)", mid)
	}
	if edge > mid {
		t.Errorf("edges (%v) should not out-loop the site vicinity (%v)", edge, mid)
	}
}

// TestAblationStickiness — without camping stickiness, persistence
// degrades at a site with competitive anchors.
func TestAblationStickiness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	pWith := val(t, "ablation-sticky", "persistent_with")
	pWithout := val(t, "ablation-sticky", "persistent_without")
	if pWithout >= pWith {
		t.Errorf("stickiness ablation: persistent with=%v without=%v, want a drop", pWith, pWithout)
	}
}

// TestFindingApps — §7: loops occur regardless of the application, and
// the buffered video stalls far less than the live stream.
func TestFindingApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	for _, w := range []string{"bulk-download", "file-upload", "video-stream", "live-stream"} {
		if val(t, "apps", "loops_"+w) == 0 {
			t.Errorf("workload %s: no loops (should be workload-independent)", w)
		}
	}
	if video, live := val(t, "apps", "stall_s_video-stream"), val(t, "apps", "stall_s_live-stream"); video >= live {
		t.Errorf("video stalls (%vs) should be below live stalls (%vs)", video, live)
	}
}

// TestMitigations — Q3: each per-cause remedy removes its loop family.
func TestMitigations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	g, _ := ByID("mitigation")
	res := g.Run(full(t))
	for _, arch := range []string{"s1e2", "s1e3", "n2e1"} {
		before := res.Values["before_"+arch]
		after := res.Values["after_"+arch]
		if before == 0 {
			t.Errorf("%s: no loops before the fix — scenario broken", arch)
		}
		if after > before/4 {
			t.Errorf("%s: fix left %v/%v loops", arch, after, before)
		}
	}
	if b, a := res.Values["n2e2_off_before_s"], res.Values["n2e2_off_after_s"]; a > b/2 {
		t.Errorf("N2E2 recovery fix: OFF %vs → %vs, want a large drop", b, a)
	}
}

// TestFindingRobustness — the detection pipeline degrades gracefully
// under capture corruption: perfect agreement on clean captures, high
// recall with no false loops at a 5% fault rate, and a kept-events
// ratio that falls monotonically with the corruption rate.
func TestFindingRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study")
	}
	if v := val(t, "robustness", "recall_0pct"); v != 1 {
		t.Errorf("clean captures must reproduce the truth exactly, recall = %.3f", v)
	}
	if v := val(t, "robustness", "precision_0pct"); v != 1 {
		t.Errorf("clean captures must reproduce the truth exactly, precision = %.3f", v)
	}
	between(t, "recall at 5% corruption", val(t, "robustness", "recall_5pct"), 0.7, 1)
	between(t, "precision at 5% corruption", val(t, "robustness", "precision_5pct"), 0.7, 1)
	between(t, "events kept at 5%", val(t, "robustness", "kept_5pct"), 0.85, 1)
	k5, k20 := val(t, "robustness", "kept_5pct"), val(t, "robustness", "kept_20pct")
	if k20 >= k5 {
		t.Errorf("kept ratio should fall with corruption: 5%% → %.3f, 20%% → %.3f", k5, k20)
	}
	between(t, "accuracy at 20% corruption", val(t, "robustness", "accuracy_20pct"), 0.5, 1)
}
