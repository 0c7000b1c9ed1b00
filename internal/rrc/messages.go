// Package rrc models the Radio Resource Control messages and
// information elements that appear in the paper's loop instances: the
// connection-establishment triple, RRCReconfiguration with its
// sCellToAddModList / sCellToReleaseList / spCellConfig /
// mobilityControlInfo fields, measurement configuration and reporting,
// SCG failure information, re-establishment, and the modem exception the
// authors observed around SCell-modification failures (Appendix B).
//
// The types here are the shared vocabulary of three components: the
// network/UE simulator emits them, the NSG-style log format
// (internal/sig) serializes and parses them, and the serving-cell-set
// extractor (internal/trace) folds them into CS timelines.
package rrc

import (
	"fmt"
	"strings"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/units"
)

// Message is one RRC (or modem-status) message in a signaling capture.
type Message interface {
	// Kind returns the message's wire name as NSG prints it, e.g.
	// "RRCReconfiguration".
	Kind() string
	// RAT returns which RRC specification carries the message:
	// band.RATNR for TS 38.331, band.RATLTE for TS 36.331.
	RAT() band.RAT
}

// MIB is a master information block broadcast (BCCH_BCH).
type MIB struct {
	Rat  band.RAT
	Cell cell.Ref
}

// Kind implements Message.
func (MIB) Kind() string { return "MIB" }

// RAT implements Message.
func (m MIB) RAT() band.RAT { return m.Rat }

// SIB1 is the system information block carrying cell-selection
// parameters; ThreshRSRPDBm is the minimum RSRP for selecting a cell
// (the −108 dBm threshold of the §3 example).
type SIB1 struct {
	Rat           band.RAT
	Cell          cell.Ref
	ThreshRSRPDBm units.DBm
}

// Kind implements Message.
func (SIB1) Kind() string { return "SIB1" }

// RAT implements Message.
func (m SIB1) RAT() band.RAT { return m.Rat }

// SetupRequest is RRCSetupRequest (NR) / RRCConnectionSetupRequest (LTE).
type SetupRequest struct {
	Rat  band.RAT
	Cell cell.Ref
}

// Kind implements Message.
func (m SetupRequest) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCSetupRequest"
	}
	return "RRCConnectionSetupRequest"
}

// RAT implements Message.
func (m SetupRequest) RAT() band.RAT { return m.Rat }

// Setup is RRCSetup (NR) / RRCConnectionSetup (LTE).
type Setup struct {
	Rat  band.RAT
	Cell cell.Ref
}

// Kind implements Message.
func (m Setup) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCSetup"
	}
	return "RRCConnectionSetup"
}

// RAT implements Message.
func (m Setup) RAT() band.RAT { return m.Rat }

// SetupComplete is RRCSetupComplete / RRCConnectionSetupComplete.
type SetupComplete struct {
	Rat  band.RAT
	Cell cell.Ref
}

// Kind implements Message.
func (m SetupComplete) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCSetupComplete"
	}
	return "RRCConnectionSetupComplete"
}

// RAT implements Message.
func (m SetupComplete) RAT() band.RAT { return m.Rat }

// SCellEntry is one sCellToAddModList element: an SCell index bound to a
// physical cell on a channel.
type SCellEntry struct {
	Index int
	Cell  cell.Ref
}

// String renders the entry the way the appendix logs print it.
func (s SCellEntry) String() string {
	return fmt.Sprintf("{sCellIndex %d, physCellId %d, absoluteFrequencySSB %d}",
		s.Index, s.Cell.PCI, s.Cell.Channel)
}

// MeasObject is one configured measurement: an event armed on a set of
// channels (the appendix prints these as, e.g., "A2 event on 387410,
// 398410 and 521310: RSRP < -156dbm").
type MeasObject struct {
	Channels []int
	Event    meas.EventConfig
}

// String renders the configured measurement.
func (m MeasObject) String() string {
	chs := make([]string, len(m.Channels))
	for i, c := range m.Channels {
		chs[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("%s on %s", m.Event, strings.Join(chs, ","))
}

// Reconfig is RRCReconfiguration (NR) / RRCConnectionReconfiguration
// (LTE), the workhorse message of every loop type. Only the fields the
// study uses are modeled; absent fields are zero.
type Reconfig struct {
	Rat     band.RAT
	Serving cell.Ref // PCell issuing the command

	// MCG SCell management (SA loops).
	AddSCells     []SCellEntry
	ReleaseSCells []int // sCellToReleaseList, by index

	// SCG management carried by LTE RRC in EN-DC (NSA loops).
	SpCell     *cell.Ref  // spCellConfig: the NR PSCell
	SCGSCells  []cell.Ref // NR SCG secondary cells
	SCGRelease bool       // release the whole SCG

	// 4G PCell handover (N1E2/N2E1).
	Mobility *cell.Ref // mobilityControlInfo target

	// Measurement configuration updates.
	MeasConfig []MeasObject
}

// Kind implements Message.
func (m Reconfig) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCReconfiguration"
	}
	return "RRCConnectionReconfiguration"
}

// RAT implements Message.
func (m Reconfig) RAT() band.RAT { return m.Rat }

// KeepsSCG reports whether a handover reconfiguration re-provisions the
// SCG; Appendix B: mobilityControlInfo without spCellConfig loses 5G.
func (m Reconfig) KeepsSCG() bool { return m.SpCell != nil }

// ReconfigComplete acknowledges a Reconfig.
type ReconfigComplete struct {
	Rat band.RAT
}

// Kind implements Message.
func (m ReconfigComplete) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCReconfigurationComplete"
	}
	return "RRCConnectionReconfigurationComplete"
}

// RAT implements Message.
func (m ReconfigComplete) RAT() band.RAT { return m.Rat }

// MeasRole labels a measurement-report entry the way NSG annotates it.
type MeasRole string

// Roles a reported cell can play.
const (
	RolePCell     MeasRole = "PCell"
	RolePSCell    MeasRole = "PSCell"
	RoleSCell     MeasRole = "SCell"
	RoleCandidate MeasRole = "candidate"
)

// MeasEntry is one reported cell measurement.
type MeasEntry struct {
	Cell cell.Ref
	Role MeasRole
	Meas meas.Measurement
}

// MeasReport is a MeasurementReport message.
type MeasReport struct {
	Rat     band.RAT
	Entries []MeasEntry
}

// Kind implements Message.
func (MeasReport) Kind() string { return "MeasurementReport" }

// RAT implements Message.
func (m MeasReport) RAT() band.RAT { return m.Rat }

// Find returns the entry for r and whether it is present; S1E1 detection
// is exactly "serving SCell absent from reports".
func (m MeasReport) Find(r cell.Ref) (MeasEntry, bool) {
	for _, e := range m.Entries {
		if e.Cell == r {
			return e, true
		}
	}
	return MeasEntry{}, false
}

// SCGFailureCause enumerates the failureType values of
// SCGFailureInformationNR seen in the study.
type SCGFailureCause string

// SCG failure causes (TS 36.331 SCGFailureInformationNR).
const (
	SCGFailureRandomAccess SCGFailureCause = "randomAccessProblem"
	SCGFailureRLF          SCGFailureCause = "scg-RadioLinkFailure"
	SCGFailureMaxRetx      SCGFailureCause = "maxRetransmissions"
	SCGFailureSyncError    SCGFailureCause = "synchronousReconfigFailure"
)

// SCGFailureInfo is the SCGFailureInformationNR message (N2E2 trigger).
type SCGFailureInfo struct {
	FailureType SCGFailureCause
}

// Kind implements Message.
func (SCGFailureInfo) Kind() string { return "SCGFailureInformationNR" }

// RAT implements Message.
func (SCGFailureInfo) RAT() band.RAT { return band.RATLTE }

// ReestCause enumerates reestablishmentCause values (TS 36.331).
type ReestCause string

// Re-establishment causes observed in the study.
const (
	ReestOtherFailure    ReestCause = "otherFailure"    // N1E1: radio link failure
	ReestHandoverFailure ReestCause = "handoverFailure" // N1E2
)

// ReestablishmentRequest is RRCConnectionReestablishmentRequest.
type ReestablishmentRequest struct {
	Cause ReestCause
}

// Kind implements Message.
func (ReestablishmentRequest) Kind() string { return "RRCConnectionReestablishmentRequest" }

// RAT implements Message.
func (ReestablishmentRequest) RAT() band.RAT { return band.RATLTE }

// ReestablishmentComplete is RRCConnectionReestablishmentComplete; Cell
// is the PCell the connection re-anchors on.
type ReestablishmentComplete struct {
	Cell cell.Ref
}

// Kind implements Message.
func (ReestablishmentComplete) Kind() string { return "RRCConnectionReestablishmentComplete" }

// RAT implements Message.
func (ReestablishmentComplete) RAT() band.RAT { return band.RATLTE }

// Release is RRCRelease / RRCConnectionRelease: the network tears the
// connection down and the UE returns to IDLE.
type Release struct {
	Rat band.RAT
}

// Kind implements Message.
func (m Release) Kind() string {
	if m.Rat == band.RATNR {
		return "RRCRelease"
	}
	return "RRCConnectionRelease"
}

// RAT implements Message.
func (m Release) RAT() band.RAT { return m.Rat }

// Exception is the modem anomaly NSG records around SCell-modification
// failures (Appendix B, Fig. 26): no over-the-air message, the MM5G
// state machine drops to DEREGISTERED and every serving cell is
// released. It is modeled as a message so logs can carry it.
type Exception struct {
	MMState  string // e.g. "DEREGISTERED"
	Substate string // e.g. "NO_CELL_AVAILABLE"
}

// Kind implements Message.
func (Exception) Kind() string { return "EXCEPTION" }

// RAT implements Message.
func (Exception) RAT() band.RAT { return band.RATNR }
