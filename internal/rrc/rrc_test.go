package rrc

import (
	"strings"
	"testing"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
)

func ref(s string) cell.Ref { return cell.MustRef(s) }

// TestKindNamesFollowSpec checks every message renders the 3GPP
// procedure name for both RRC specifications (TS 38.331 vs TS 36.331).
func TestKindNamesFollowSpec(t *testing.T) {
	r := ref("1@2")
	cases := []struct {
		msg  Message
		kind string
		rat  band.RAT
	}{
		{MIB{Rat: band.RATNR, Cell: r}, "MIB", band.RATNR},
		{SIB1{Rat: band.RATNR, Cell: r}, "SIB1", band.RATNR},
		{SetupRequest{Rat: band.RATNR, Cell: r}, "RRCSetupRequest", band.RATNR},
		{SetupRequest{Rat: band.RATLTE, Cell: r}, "RRCConnectionSetupRequest", band.RATLTE},
		{Setup{Rat: band.RATNR, Cell: r}, "RRCSetup", band.RATNR},
		{Setup{Rat: band.RATLTE, Cell: r}, "RRCConnectionSetup", band.RATLTE},
		{SetupComplete{Rat: band.RATNR, Cell: r}, "RRCSetupComplete", band.RATNR},
		{SetupComplete{Rat: band.RATLTE, Cell: r}, "RRCConnectionSetupComplete", band.RATLTE},
		{Reconfig{Rat: band.RATNR}, "RRCReconfiguration", band.RATNR},
		{Reconfig{Rat: band.RATLTE}, "RRCConnectionReconfiguration", band.RATLTE},
		{ReconfigComplete{Rat: band.RATNR}, "RRCReconfigurationComplete", band.RATNR},
		{ReconfigComplete{Rat: band.RATLTE}, "RRCConnectionReconfigurationComplete", band.RATLTE},
		{MeasReport{Rat: band.RATLTE}, "MeasurementReport", band.RATLTE},
		{SCGFailureInfo{FailureType: SCGFailureRandomAccess}, "SCGFailureInformationNR", band.RATLTE},
		{ReestablishmentRequest{Cause: ReestOtherFailure}, "RRCConnectionReestablishmentRequest", band.RATLTE},
		{ReestablishmentComplete{Cell: r}, "RRCConnectionReestablishmentComplete", band.RATLTE},
		{Release{Rat: band.RATNR}, "RRCRelease", band.RATNR},
		{Release{Rat: band.RATLTE}, "RRCConnectionRelease", band.RATLTE},
		{Exception{MMState: "DEREGISTERED"}, "EXCEPTION", band.RATNR},
	}
	for _, c := range cases {
		if got := c.msg.Kind(); got != c.kind {
			t.Errorf("%T Kind = %q, want %q", c.msg, got, c.kind)
		}
		if got := c.msg.RAT(); got != c.rat {
			t.Errorf("%T RAT = %v, want %v", c.msg, got, c.rat)
		}
	}
}

func TestSCellEntryString(t *testing.T) {
	e := SCellEntry{Index: 1, Cell: ref("273@387410")}
	want := "{sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}"
	if e.String() != want {
		t.Errorf("String = %q", e)
	}
}

func TestMeasObjectString(t *testing.T) {
	mo := MeasObject{Channels: []int{387410, 398410}, Event: meas.A2(meas.QuantityRSRP, -156)}
	if got := mo.String(); got != "A2 RSRP < -156dBm on 387410,398410" {
		t.Errorf("String = %q", got)
	}
}

func TestReconfigHelpers(t *testing.T) {
	mob := ref("97@5145")
	sp := ref("53@632736")
	plain := Reconfig{Rat: band.RATLTE}
	if plain.KeepsSCG() {
		t.Error("plain reconfig flags wrong")
	}
	ho := Reconfig{Rat: band.RATLTE, Mobility: &mob}
	if ho.KeepsSCG() {
		t.Error("handover flags wrong")
	}
	hoKeep := Reconfig{Rat: band.RATLTE, Mobility: &mob, SpCell: &sp}
	if !hoKeep.KeepsSCG() {
		t.Error("SCG-carrying handover flags wrong")
	}
}

func TestMeasReportFind(t *testing.T) {
	m := MeasReport{Entries: []MeasEntry{
		{Cell: ref("1@2"), Role: RolePCell, Meas: meas.Measurement{RSRPDBm: -80}},
		{Cell: ref("3@4"), Role: RoleSCell, Meas: meas.Measurement{RSRPDBm: -90}},
	}}
	e, ok := m.Find(ref("3@4"))
	if !ok || e.Role != RoleSCell || e.Meas.RSRPDBm != -90 {
		t.Errorf("Find = %+v, %v", e, ok)
	}
	if _, ok := m.Find(ref("9@9")); ok {
		t.Error("Find should miss")
	}
}

func TestCausesAreSpecStrings(t *testing.T) {
	// The wire strings must match TS 36.331 enumerations — the parser
	// and classifier rely on them verbatim.
	if string(ReestOtherFailure) != "otherFailure" ||
		string(ReestHandoverFailure) != "handoverFailure" {
		t.Error("reestablishment cause strings drifted")
	}
	for _, c := range []SCGFailureCause{
		SCGFailureRandomAccess, SCGFailureRLF, SCGFailureMaxRetx, SCGFailureSyncError,
	} {
		if strings.ContainsAny(string(c), " \t") {
			t.Errorf("SCG failure cause %q contains whitespace", c)
		}
	}
	if string(SCGFailureRandomAccess) != "randomAccessProblem" {
		t.Error("randomAccessProblem string drifted")
	}
}
