// Parsetrace: analyze a hand-written NSG-style signaling capture with
// no simulator involved — the use case of applying the library to real
// captures. The embedded log reproduces the appendix's S1E3 walkthrough
// (Figures 24–26) twice, so loop detection has a repetition to find.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/mssn/loopscope"
)

// capture is two ON-OFF cycles of the paper's §3 example in the text
// format the parser accepts: RRC establishment on 393@521310, three
// SCells added, the SCell modification 273@387410 → 371@387410, and the
// modem exception that releases everything.
const capture = `00:00:01.635 NR5G RRC OTA Packet -- BCCH_BCH / MIB
  Physical Cell ID = 393, Freq = 521310
00:00:01.690 NR5G RRC OTA Packet -- BCCH_DL_SCH / SIB1
  Physical Cell ID = 393, Freq = 521310
  selectionThreshRSRP = -108.0
00:00:01.708 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest
  Physical Cell ID = 393, Freq = 521310
00:00:01.827 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup
  Physical Cell ID = 393, Freq = 521310
00:00:01.834 NR5G RRC OTA Packet -- UL_DCCH / RRCSetupComplete
  Physical Cell ID = 393, Freq = 521310
00:00:04.361 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
  sCellToAddModList {sCellIndex 2, physCellId 273, absoluteFrequencySSB 398410}
  sCellToAddModList {sCellIndex 3, physCellId 393, absoluteFrequencySSB 501390}
  measConfig {A2 RSRP < -156dBm on 387410,398410,521310}
  measConfig {A3 RSRP offset > 6dB on 387410}
00:00:04.376 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:05.100 NR5G RRC OTA Packet -- UL_DCCH / MeasurementReport
  measResult {cell 393@521310, role PCell, rsrp -81.0, rsrq -10.5}
  measResult {cell 273@387410, role SCell, rsrp -85.0, rsrq -14.5}
  measResult {cell 273@398410, role SCell, rsrp -82.0, rsrq -10.5}
  measResult {cell 393@501390, role SCell, rsrp -82.0, rsrq -10.5}
  measResult {cell 371@387410, role candidate, rsrp -81.0, rsrq -11.5}
00:00:05.110 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 4, physCellId 371, absoluteFrequencySSB 387410}
  sCellToReleaseList {1}
00:00:05.125 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:05.200 SYS -- EXCEPTION
  MM5G State = DEREGISTERED, Substate = NO_CELL_AVAILABLE
00:00:16.100 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest
  Physical Cell ID = 393, Freq = 521310
00:00:16.200 NR5G RRC OTA Packet -- DL_CCCH / RRCSetup
  Physical Cell ID = 393, Freq = 521310
00:00:16.210 NR5G RRC OTA Packet -- UL_DCCH / RRCSetupComplete
  Physical Cell ID = 393, Freq = 521310
00:00:18.800 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 1, physCellId 273, absoluteFrequencySSB 387410}
  sCellToAddModList {sCellIndex 2, physCellId 273, absoluteFrequencySSB 398410}
  sCellToAddModList {sCellIndex 3, physCellId 393, absoluteFrequencySSB 501390}
00:00:18.815 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:33.100 NR5G RRC OTA Packet -- DL_DCCH / RRCReconfiguration
  Physical Cell ID = 393, Freq = 521310
  sCellToAddModList {sCellIndex 4, physCellId 371, absoluteFrequencySSB 387410}
  sCellToReleaseList {1}
00:00:33.115 NR5G RRC OTA Packet -- UL_DCCH / RRCReconfigurationComplete
00:00:33.200 SYS -- EXCEPTION
  MM5G State = DEREGISTERED, Substate = NO_CELL_AVAILABLE
00:00:43.900 NR5G RRC OTA Packet -- UL_CCCH / RRCSetupRequest
  Physical Cell ID = 393, Freq = 521310
`

func main() {
	parsed, err := loopscope.ParseLog(strings.NewReader(capture), nil)
	if err != nil {
		log.Fatal(err)
	}
	tl := loopscope.ExtractTimeline(parsed)

	fmt.Println("serving cell set sequence (Appendix B extraction):")
	for i, s := range tl.Steps {
		fmt.Printf("  CS%-2d t=%-8v %s\n", i, s.At.Round(time.Millisecond), s.Set)
	}

	analysis := loopscope.Analyze(tl)
	loop, subtype := analysis.Primary()
	if loop == nil {
		fmt.Println("no loop found")
		return
	}
	fmt.Printf("\nloop: %v (%v), cycle length %d, %d repetitions\n",
		subtype, loop.Form, loop.CycleLen, loop.Reps)
	if off, ok := loop.OffTransition(); ok && off.Evidence.PendingMod != nil {
		m := off.Evidence.PendingMod
		fmt.Printf("trigger: SCell modification %s → %s failed (intra-channel: %v)\n",
			m.Released, m.Added, m.IntraChannel())
	}
}
