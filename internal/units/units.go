// Package units defines the typed physical quantities the paper's loop
// mechanics hinge on: absolute power levels in dBm (RSRP, transmit
// power, A2/A5/B1 thresholds), relative levels in dB (RSRQ, A3 offsets,
// hysteresis, priority bonuses) and distances in meters.
//
// Every type is a named float64, so values format, compare and
// serialize exactly like the bare floats they replace — the study
// output is byte-identical — while the compiler (and loopvet's
// unitcheck analyzer) rejects the dB-vs-dBm mix-ups that would
// silently corrupt loop detection in a real NSG study.
//
// The conversion discipline is log-space dimensional algebra:
//
//	DBm − DBm = DB     (a gap between two absolute levels)
//	DBm ± DB  = DBm    (shifting an absolute level)
//	DB  ± DB  = DB
//
// Cross-unit conversions (DBm↔DB, ...) have no physical meaning and
// are flagged by unitcheck; injections from bare floats (units.DBm(x))
// and the Float accessors are the sanctioned boundaries to unitless
// code (strconv, math, encoding).
package units

import "math"

// DBm is an absolute power level referenced to one milliwatt: RSRP,
// transmit power, and the A2/A5/B1 event thresholds of TS 36.331 /
// TS 38.331 when the trigger quantity is RSRP.
type DBm float64

// Float unwraps the level for unitless consumers (formatting, math).
func (x DBm) Float() float64 { return float64(x) }

// Sub returns the gap x − y between two absolute levels, which is a
// relative quantity: RSRP gaps (F16/F17) are DB, not DBm.
func (x DBm) Sub(y DBm) DB { return DB(float64(x) - float64(y)) }

// Add shifts an absolute level by a relative one (offsets, hysteresis,
// priority bonuses).
func (x DBm) Add(d DB) DBm { return DBm(float64(x) + float64(d)) }

// Level widens the value to the quantity-polymorphic Level scalar used
// by event thresholds (see Level).
func (x DBm) Level() Level { return Level(x) }

// DB is a relative level (a ratio in log space): RSRQ, A3 offsets,
// hysteresis, shadowing/fading magnitudes, reselection-priority
// bonuses, and every RSRP *gap*.
type DB float64

// Float unwraps the value for unitless consumers.
func (d DB) Float() float64 { return float64(d) }

// Add sums two relative levels.
func (d DB) Add(o DB) DB { return DB(float64(d) + float64(o)) }

// Sub returns the difference of two relative levels.
func (d DB) Sub(o DB) DB { return DB(float64(d) - float64(o)) }

// Scale multiplies the level by a dimensionless factor (fading draws:
// σ · N(0,1)).
func (d DB) Scale(k float64) DB { return DB(k * float64(d)) }

// Level widens the value to the quantity-polymorphic Level scalar.
func (d DB) Level() Level { return Level(d) }

// Level is the quantity-scaled scalar of a 3GPP reportConfig
// threshold: the same EventConfig field holds dBm when the trigger
// quantity is RSRP and dB when it is RSRQ, so the threshold's unit is
// resolved by the Quantity at evaluation time, exactly like
// threshold-RSRP/threshold-RSRQ in TS 36.331 §5.5.4. Level keeps that
// polymorphism explicit instead of falling back to a bare float.
type Level float64

// Float unwraps the value for unitless consumers.
func (l Level) Float() float64 { return float64(l) }

// Shift moves a level by a relative amount (hysteresis, offsets) —
// valid for both quantities, since both are log-scale.
func (l Level) Shift(d DB) Level { return Level(float64(l) + float64(d)) }

// Meters is a distance in the deployment's area frame (tower-to-UE
// distances, shadowing correlation lengths).
type Meters float64

// Float unwraps the value for unitless consumers.
func (m Meters) Float() float64 { return float64(m) }

// Epsilon is the default tolerance for comparing log-scale levels.
// Captured and simulated levels carry sub-0.1 dB noise, so exact
// float64 equality is never meaningful; 1e-9 dB is far below any
// physical resolution while still catching genuinely identical values.
const Epsilon = 1e-9

// ApproxEqual reports whether two levels of the same unit are equal
// within Epsilon. It is the approved way to compare level-valued
// floats — direct == / != on them is rejected by loopvet's floatcmp
// analyzer.
func ApproxEqual[T ~float64](a, b T) bool { return ApproxEqualEps(a, b, Epsilon) }

// ApproxEqualEps is ApproxEqual with an explicit tolerance.
func ApproxEqualEps[T ~float64](a, b T, eps float64) bool {
	return math.Abs(float64(a)-float64(b)) <= eps
}
