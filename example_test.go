package loopscope_test

import (
	"fmt"
	"strings"

	"github.com/mssn/loopscope"
)

// ExampleParseLog demonstrates the analysis pipeline over a
// minimal hand-written capture: two identical ON→OFF cycles caused by a
// failing intra-channel SCell modification classify as a persistent
// S1E3 loop.
func ExampleParseLog() {
	capture := `00:00:00.210 NR5G RRC OTA Packet -- UL_DCCH / RRCSetupComplete
  Physical Cell ID = 393, Freq = 521310
00:00:03.200 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
00:00:03.210 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:05.100 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 2, physCellId 371, absoluteFrequencySSB 387410}
  sCellToReleaseList {1}
00:00:05.110 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:05.200 SYS -- EXCEPTION
  MM5G State = DEREGISTERED, Substate = NO_CELL_AVAILABLE
00:00:16.210 NR5G RRC OTA Packet -- UL_DCCH / RRCSetupComplete
  Physical Cell ID = 393, Freq = 521310
00:00:19.200 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
00:00:19.210 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:21.100 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 2, physCellId 371, absoluteFrequencySSB 387410}
  sCellToReleaseList {1}
00:00:21.110 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:21.200 SYS -- EXCEPTION
  MM5G State = DEREGISTERED, Substate = NO_CELL_AVAILABLE
`
	log, err := loopscope.ParseLog(strings.NewReader(capture), nil)
	if err != nil {
		panic(err)
	}
	analysis := loopscope.Analyze(loopscope.ExtractTimeline(log))
	loop, subtype := analysis.Primary()
	fmt.Println("subtype:", subtype)
	fmt.Println("type:", subtype.Type())
	fmt.Println("form:", loop.Form)
	fmt.Println("cycle length:", loop.CycleLen)
	// Output:
	// subtype: S1E3
	// type: S1
	// form: II-P
	// cycle length: 4
}

// ExampleFitModel shows the §6 loop-probability model on synthetic
// training data: the conditional probability falls as the SCell RSRP
// gap widens.
func ExampleFitModel() {
	samples := []loopscope.TrainingSample{
		{Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 1}}, Truth: 1.0},
		{Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 3}}, Truth: 0.8},
		{Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 6}}, Truth: 0.4},
		{Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 9}}, Truth: 0.1},
		{Combos: []loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 14}}, Truth: 0.0},
	}
	m := loopscope.FitModel(samples, loopscope.FeatureSCellGap)
	small := m.Predict([]loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 2}})
	large := m.Predict([]loopscope.Combo{{PCellGapDB: 12, SCellGapDB: 12}})
	fmt.Println("small gap loops more:", small > large)
	// Output:
	// small gap loops more: true
}
