// Package policy encodes the per-operator RRC policies and
// configuration the paper reverse-engineers in §5: measurement-event
// thresholds, cell-selection criteria, and — crucially — the
// channel-specific rules behind the loops (F14/F15): OPA's "5G-disabled"
// channel 5815 with its blind redirect to 5145, OPV's channel 5230 that
// drops the SCG on every handover onto it, and OPV's 30-second
// SCG-recovery configuration cadence.
package policy

import (
	"time"

	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/units"
)

// Mode is the operator's 5G deployment option.
type Mode uint8

// Deployment options (§2).
const (
	ModeSA  Mode = iota // 5G standalone (OPT)
	ModeNSA             // 5G non-standalone / EN-DC (OPA, OPV)
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeNSA {
		return "5G NSA"
	}
	return "5G SA"
}

// Operator is one network operator's policy profile.
type Operator struct {
	Name     string // study alias: OPT, OPA, OPV
	FullName string // T-Mobile, AT&T, Verizon
	Mode     Mode

	// NRChannels and LTEChannels are the deployed channel inventories
	// (Table 3 bands; channel numbers as reported in the paper's
	// instances and breakdowns).
	NRChannels  []int
	LTEChannels []int

	// --- 5G SA parameters (OPT) ---

	// SelectThreshRSRPDBm is the SIB cell-selection threshold (−108 dBm
	// in the §3 example).
	SelectThreshRSRPDBm units.DBm
	// SCellA2 is the serving-SCell release event configuration
	// ("A2 RSRP < −156 dBm" in the instances — set so low it never
	// fires, which is itself part of the S1E2 story).
	SCellA2 meas.EventConfig
	// SCellA3 triggers SCell modification when a co-channel candidate
	// is offset stronger ("A3 RSRP gap > 6 dB").
	SCellA3 meas.EventConfig

	// --- 5G NSA parameters (OPA, OPV) ---

	// B1 arms NR SCG addition (e.g. RSRP > −115 dBm, Fig. 33).
	B1 meas.EventConfig
	// HandoverA3 governs LTE PCell handover (RSRQ offset 6 dB on the
	// problematic channels, Fig. 32).
	HandoverA3 meas.EventConfig
	// PSCellA3 triggers NR PSCell change within the SCG (Fig. 33:
	// "A3 on 648672: RSRP offset > 5 dB").
	PSCellA3 meas.EventConfig

	// DisabledWith5G marks 4G channels whose PCells never get an SCG
	// (OPA's 5815, F15 policy 1).
	DisabledWith5G map[int]bool
	// BlindRedirect maps a 4G channel to the channel the PCell
	// immediately switches to (same PCI, no measurement) as soon as any
	// NR measurement is reported (OPA: 5815 → 5145, F15 policy 2).
	BlindRedirect map[int]int
	// DropSCGOnHandoverTo marks 4G channels that may carry an SCG but
	// release it on every handover onto them (OPV's 5230).
	DropSCGOnHandoverTo map[int]bool
	// SCGRecoveryConfigPeriod is how often the network pushes the
	// updated measurement configuration a UE needs before it can report
	// NR cells after losing the SCG. OPV pushes every 30 s, which is
	// why its N2E2 OFF times cluster at multiples of 30 s (Fig. 19c).
	SCGRecoveryConfigPeriod time.Duration

	// LegacyA2B1, when set, reproduces the uncoordinated A2/B1
	// thresholds reported by prior work (Zhang et al., F12): NR serving
	// cells are released when RSRP falls below A2ThreshRSRPDBm while
	// candidates are added above the (lower) B1 threshold, creating a
	// dead band in which the SCG oscillates. Today's operators have
	// corrected the thresholds — the field exists for the regression
	// experiment demonstrating exactly that.
	LegacyA2B1 *A2B1Legacy

	// AnchorPriorityDB is the per-channel cell-(re)selection priority
	// bonus (SIB cellReselectionPriority, expressed in dB so it
	// composes with RSRP ranking). It is what keeps a UE re-anchoring
	// on the same PCell run after run — the precondition for a
	// *persistent* loop.
	AnchorPriorityDB map[int]units.DB

	// MedianOnMbps / MedianOffMbps anchor the throughput model
	// (Fig. 11: OPT 186.1, OPA 24.9, OPV 97.5 Mbps when ON; OPT ≈ 0
	// when OFF because it goes IDLE, the NSA operators fall back to 4G).
	MedianOnMbps  float64
	MedianOffMbps float64
}

// ProblemChannel returns the operator's primary "problematic" channel
// (F14: OPT 387410, OPA 5815, OPV 5230).
func (o *Operator) ProblemChannel() int {
	switch o.Name {
	case "OPT":
		return 387410
	case "OPA":
		return 5815
	case "OPV":
		return 5230
	}
	return 0
}

// A2B1Legacy is the inconsistent threshold pair of the historical
// A2-B1 loop (Θ_B1 < Θ_A2 opens the oscillation band).
type A2B1Legacy struct {
	A2ThreshRSRPDBm units.DBm // release serving NR below this
	B1ThreshRSRPDBm units.DBm // add candidate NR above this
}

// OPALegacy is OPA as prior measurement studies (2021–2023) saw it:
// the same deployment with the uncoordinated A2/B1 thresholds that
// produced the historical A2-B1 loops. Comparing it against OPA() is
// the F12 regression.
func OPALegacy() *Operator {
	op := OPA()
	op.Name = "OPA-legacy"
	op.B1 = meas.B1(meas.QuantityRSRP, -118)
	op.LegacyA2B1 = &A2B1Legacy{A2ThreshRSRPDBm: -110, B1ThreshRSRPDBm: -118}
	return op
}

// OPT is the 5G SA operator profile (T-Mobile in the study).
func OPT() *Operator {
	return &Operator{
		Name:                "OPT",
		FullName:            "T-Mobile",
		Mode:                ModeSA,
		NRChannels:          []int{521310, 501390, 398410, 387410, 126270},
		LTEChannels:         []int{850, 66986},
		SelectThreshRSRPDBm: -108,
		SCellA2:             meas.A2(meas.QuantityRSRP, -156),
		SCellA3:             meas.A3(meas.QuantityRSRP, 6),
		AnchorPriorityDB: map[int]units.DB{
			521310: 15, // wide n41 carriers are the preferred anchors
			501390: 6,
			126270: 0,
		},
		MedianOnMbps:  186.1,
		MedianOffMbps: 0, // IDLE while OFF: data service suspended
	}
}

// OPA is the first 5G NSA operator profile (AT&T in the study).
func OPA() *Operator {
	return &Operator{
		Name:        "OPA",
		FullName:    "AT&T",
		Mode:        ModeNSA,
		NRChannels:  []int{632736, 658080, 174770},
		LTEChannels: []int{850, 1150, 2000, 5145, 5815, 9820, 66486, 66936},
		B1:          meas.B1(meas.QuantityRSRP, -115),
		HandoverA3:  meas.A3(meas.QuantityRSRQ, 6),
		PSCellA3:    meas.A3(meas.QuantityRSRP, 5),
		DisabledWith5G: map[int]bool{
			5815: true,
		},
		BlindRedirect: map[int]int{
			5815: 5145,
		},
		AnchorPriorityDB:        map[int]units.DB{5815: 8},
		SCGRecoveryConfigPeriod: time.Second,
		MedianOnMbps:            24.9,
		MedianOffMbps:           14,
	}
}

// OPV is the second 5G NSA operator profile (Verizon in the study).
func OPV() *Operator {
	return &Operator{
		Name:        "OPV",
		FullName:    "Verizon",
		Mode:        ModeNSA,
		NRChannels:  []int{648672, 653952},
		LTEChannels: []int{1075, 2560, 5230, 66586, 66836},
		B1:          meas.B1(meas.QuantityRSRP, -115),
		HandoverA3:  meas.A3(meas.QuantityRSRQ, 6),
		PSCellA3:    meas.A3(meas.QuantityRSRP, 5),
		DropSCGOnHandoverTo: map[int]bool{
			5230: true,
		},
		AnchorPriorityDB:        map[int]units.DB{5230: 4},
		SCGRecoveryConfigPeriod: 30 * time.Second,
		MedianOnMbps:            97.5,
		MedianOffMbps:           45,
	}
}

// All returns the three operator profiles in presentation order.
func All() []*Operator { return []*Operator{OPT(), OPA(), OPV()} }

// ByName returns the operator profile for a study alias, or nil.
func ByName(name string) *Operator {
	for _, o := range All() {
		if o.Name == name {
			return o
		}
	}
	return nil
}
