package policy

import (
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/meas"
)

func TestAllOperators(t *testing.T) {
	ops := All()
	if len(ops) != 3 {
		t.Fatalf("operators = %d", len(ops))
	}
	wantModes := map[string]Mode{"OPT": ModeSA, "OPA": ModeNSA, "OPV": ModeNSA}
	for _, op := range ops {
		if op.Mode != wantModes[op.Name] {
			t.Errorf("%s mode = %v", op.Name, op.Mode)
		}
		if len(op.NRChannels) == 0 || len(op.LTEChannels) == 0 {
			t.Errorf("%s: empty channel inventory", op.Name)
		}
		if op.MedianOnMbps <= op.MedianOffMbps {
			t.Errorf("%s: ON speed must beat OFF speed", op.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("OPT") == nil || ByName("OPA") == nil || ByName("OPV") == nil {
		t.Error("known operators missing")
	}
	if ByName("OPX") != nil {
		t.Error("OPX should not resolve")
	}
}

func TestProblemChannels(t *testing.T) {
	// F14: OPT 387410, OPA 5815, OPV 5230.
	cases := map[string]int{"OPT": 387410, "OPA": 5815, "OPV": 5230}
	for name, want := range cases {
		if got := ByName(name).ProblemChannel(); got != want {
			t.Errorf("%s problem channel = %d, want %d", name, got, want)
		}
	}
	if (&Operator{Name: "??"}).ProblemChannel() != 0 {
		t.Error("unknown operator should have no problem channel")
	}
}

func TestOPTPolicies(t *testing.T) {
	op := OPT()
	// §3: selection threshold −108 dBm; A2 at −156 (never fires); A3
	// with 6 dB offset.
	if op.SelectThreshRSRPDBm != -108 {
		t.Errorf("selection threshold = %v", op.SelectThreshRSRPDBm)
	}
	if op.SCellA2.Threshold != -156 || op.SCellA2.Kind != meas.EventA2 {
		t.Errorf("SCellA2 = %+v", op.SCellA2)
	}
	if op.SCellA3.Offset != 6 || op.SCellA3.Kind != meas.EventA3 {
		t.Errorf("SCellA3 = %+v", op.SCellA3)
	}
	// The problematic channel must be deployed.
	found := false
	for _, ch := range op.NRChannels {
		if ch == 387410 {
			found = true
		}
	}
	if !found {
		t.Error("387410 missing from OPT's inventory")
	}
	// Anchor priorities rank the wide n41 carriers above n71.
	if op.AnchorPriorityDB[521310] <= op.AnchorPriorityDB[501390] {
		t.Error("521310 should outrank 501390")
	}
	if op.AnchorPriorityDB[501390] <= op.AnchorPriorityDB[126270] {
		t.Error("501390 should outrank 126270")
	}
}

func TestOPAPolicies(t *testing.T) {
	op := OPA()
	// F15: 5815 never works with 5G and blindly redirects to 5145.
	if !op.DisabledWith5G[5815] {
		t.Error("5815 must be 5G-disabled")
	}
	if op.BlindRedirect[5815] != 5145 {
		t.Errorf("redirect = %v", op.BlindRedirect[5815])
	}
	if op.DropSCGOnHandoverTo[5815] {
		t.Error("OPA uses the disable policy, not the drop policy")
	}
	if op.SCGRecoveryConfigPeriod > 2*time.Second {
		t.Errorf("OPA recovery period = %v, want ~1s", op.SCGRecoveryConfigPeriod)
	}
	if op.HandoverA3.Quantity != meas.QuantityRSRQ {
		t.Error("OPA handover A3 is RSRQ-driven (Fig. 32)")
	}
}

func TestOPVPolicies(t *testing.T) {
	op := OPV()
	// F15: 5230 works with 5G but drops the SCG on every handover onto
	// it; recovery configuration arrives every 30 s.
	if op.DisabledWith5G[5230] {
		t.Error("5230 is allowed to work with 5G")
	}
	if !op.DropSCGOnHandoverTo[5230] {
		t.Error("5230 must drop the SCG on handover")
	}
	if op.SCGRecoveryConfigPeriod != 30*time.Second {
		t.Errorf("OPV recovery period = %v, want 30s", op.SCGRecoveryConfigPeriod)
	}
	if len(op.BlindRedirect) != 0 {
		t.Error("OPV has no blind-redirect policy")
	}
	// B1 threshold from the Fig. 33 instance.
	if op.B1.Threshold != -115 {
		t.Errorf("B1 threshold = %v", op.B1.Threshold)
	}
}

func TestModeString(t *testing.T) {
	if ModeSA.String() != "5G SA" || ModeNSA.String() != "5G NSA" {
		t.Error("mode strings")
	}
}

func TestOPALegacy(t *testing.T) {
	op := OPALegacy()
	if op.LegacyA2B1 == nil {
		t.Fatal("legacy thresholds missing")
	}
	// The dead band must be open: Θ_B1 < Θ_A2.
	if op.LegacyA2B1.B1ThreshRSRPDBm >= op.LegacyA2B1.A2ThreshRSRPDBm {
		t.Error("legacy band closed; no oscillation possible")
	}
	// The legacy profile keeps OPA's deployment but renames itself.
	if op.Name == OPA().Name {
		t.Error("legacy profile must be distinguishable")
	}
	if op.ProblemChannel() != 0 {
		t.Error("renamed profile has no F14 problem channel mapping")
	}
	// Today's profiles carry no legacy thresholds (F12).
	for _, cur := range All() {
		if cur.LegacyA2B1 != nil {
			t.Errorf("%s still carries legacy thresholds", cur.Name)
		}
	}
}
