// Package cell models cells and serving cell sets (CS) exactly the way
// the paper reasons about them: a cell is "ID@FreqChannelNo" running one
// RAT over one frequency channel; radio access at any instant is a
// serving cell set made of a master cell group (MCG) and an optional
// secondary cell group (SCG), each with one primary cell and optional
// SCells (§2).
package cell

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/units"
)

// Ref identifies a cell the way the paper denotes it: ID@FreqChannelNo,
// where ID is the physical cell identity and FreqChannelNo is the
// ARFCN (5G) or EARFCN (4G).
type Ref struct {
	PCI     int // physical cell identity
	Channel int // ARFCN / EARFCN
}

// String renders the paper's ID@FreqChannelNo notation, e.g. "393@521310".
func (r Ref) String() string {
	var buf [41]byte // two 64-bit integers and the @
	return string(r.appendTo(buf[:0]))
}

// appendTo appends r's ID@FreqChannelNo notation to b.
func (r Ref) appendTo(b []byte) []byte {
	b = strconv.AppendInt(b, int64(r.PCI), 10)
	b = append(b, '@')
	return strconv.AppendInt(b, int64(r.Channel), 10)
}

// ParseRef parses the ID@FreqChannelNo notation.
func ParseRef(s string) (Ref, error) {
	i := strings.IndexByte(s, '@')
	if i <= 0 || i == len(s)-1 {
		return Ref{}, fmt.Errorf("cell: malformed ref %q (want ID@Channel)", s)
	}
	pci, err := strconv.Atoi(s[:i])
	if err != nil {
		return Ref{}, fmt.Errorf("cell: bad PCI in %q: %w", s, err)
	}
	ch, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return Ref{}, fmt.Errorf("cell: bad channel in %q: %w", s, err)
	}
	return Ref{PCI: pci, Channel: ch}, nil
}

// MustRef is ParseRef for static tables; it panics on malformed input.
func MustRef(s string) Ref {
	r, err := ParseRef(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Cell is a deployed cell: a Ref plus its RAT and physical attributes.
type Cell struct {
	Ref
	RAT        band.RAT
	Pos        geo.Point // tower position in the area frame
	TxPowerDBm units.DBm // effective transmit power incl. antenna gain
	// NoiseDB shifts this cell's effective RSRQ; wide, busy channels
	// carry more interference than narrow ones. It is a relative
	// degradation, not an absolute noise floor — hence dB, not dBm.
	NoiseDB units.DB
	// MIMOLayers is the spatial-multiplexing configuration the network
	// offers on this cell (2 for 2x2, 4 for 4x4), which §4.4 ties to
	// device-dependent serving-cell selection.
	MIMOLayers int
}

// Band returns the study's band label for the cell ("n41", "2", ...).
func (c *Cell) Band() string { return band.BandName(c.RAT, c.Channel) }

// FreqMHz returns the cell's carrier frequency in MHz (0 if unknown).
func (c *Cell) FreqMHz() float64 {
	f, _ := band.FreqMHz(c.RAT, c.Channel)
	return f
}

// WidthMHz returns the channel width used by this cell.
func (c *Cell) WidthMHz() float64 { return band.DefaultWidthMHz(c.RAT, c.Channel) }

// Group is a cell group: one primary cell plus optional SCells.
type Group struct {
	RAT     band.RAT
	Primary Ref   // PCell (MCG) or PSCell (SCG)
	SCells  []Ref // secondary cells, order of addition
}

// NewGroup returns a group with the given primary and no SCells.
func NewGroup(rat band.RAT, primary Ref) *Group {
	return &Group{RAT: rat, Primary: primary}
}

// Clone returns a deep copy of g (nil-safe).
func (g *Group) Clone() *Group {
	if g == nil {
		return nil
	}
	cp := *g
	cp.SCells = append([]Ref(nil), g.SCells...)
	return &cp
}

// AddSCell appends an SCell if not already present; it reports whether
// the group changed.
func (g *Group) AddSCell(r Ref) bool {
	if r == g.Primary {
		return false
	}
	for _, s := range g.SCells {
		if s == r {
			return false
		}
	}
	g.SCells = append(g.SCells, r)
	return true
}

// RemoveSCell removes an SCell; it reports whether the cell was present.
func (g *Group) RemoveSCell(r Ref) bool {
	for i, s := range g.SCells {
		if s == r {
			g.SCells = append(g.SCells[:i], g.SCells[i+1:]...)
			return true
		}
	}
	return false
}

// Cells returns the primary followed by all SCells.
func (g *Group) Cells() []Ref {
	if g == nil {
		return nil
	}
	out := make([]Ref, 0, 1+len(g.SCells))
	out = append(out, g.Primary)
	out = append(out, g.SCells...)
	return out
}

// Contains reports whether r is the primary or one of the SCells.
func (g *Group) Contains(r Ref) bool {
	if g == nil {
		return false
	}
	if g.Primary == r {
		return true
	}
	for _, s := range g.SCells {
		if s == r {
			return true
		}
	}
	return false
}

// appendKey appends a canonical representation with sorted SCells to
// b, so that two groups with the same members compare equal regardless
// of addition order. The SCells are sorted in a copy on the stack when
// they fit the usual group size.
func (g *Group) appendKey(b []byte) []byte {
	if g == nil {
		return append(b, '-')
	}
	var stack [8]Ref
	sc := append(stack[:0], g.SCells...)
	slices.SortFunc(sc, func(x, y Ref) int {
		if c := cmp.Compare(x.Channel, y.Channel); c != 0 {
			return c
		}
		return cmp.Compare(x.PCI, y.PCI)
	})
	b = append(b, g.RAT.String()...)
	b = append(b, ':')
	b = g.Primary.appendTo(b)
	for _, r := range sc {
		b = append(b, '+')
		b = r.appendTo(b)
	}
	return b
}

// State is the coarse radio-access state the paper's FSMs range over.
type State uint8

// The four radio-access states (Figures 3 and 13).
const (
	StateIdle   State = iota // no active RRC connection
	State5GSA                // 5G master (optionally 4G secondary)
	State5GNSA               // 4G master + 5G secondary
	State4GOnly              // 4G without any 5G resource
)

// String names the state the way the paper labels FSM nodes.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case State5GSA:
		return "5G SA"
	case State5GNSA:
		return "5G NSA"
	case State4GOnly:
		return "4G only"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Set is a serving cell set (CS): the MCG plus an optional SCG. The
// zero value (nil groups) is IDLE.
type Set struct {
	MCG *Group
	SCG *Group
}

// Idle returns the IDLE serving cell set.
func Idle() Set { return Set{} }

// Clone returns a deep copy of s.
func (s Set) Clone() Set { return Set{MCG: s.MCG.Clone(), SCG: s.SCG.Clone()} }

// IsIdle reports whether no RRC connection exists.
func (s Set) IsIdle() bool { return s.MCG == nil }

// Uses5G implements the paper's 5G ON definition (§2): true as long as
// any 5G cell serves either as master or secondary radio access.
func (s Set) Uses5G() bool {
	if s.MCG != nil && s.MCG.RAT == band.RATNR {
		return true
	}
	if s.SCG != nil && s.SCG.RAT == band.RATNR {
		return true
	}
	return false
}

// State classifies the set into the paper's four FSM states.
func (s Set) State() State {
	switch {
	case s.MCG == nil:
		return StateIdle
	case s.MCG.RAT == band.RATNR:
		return State5GSA
	case s.SCG != nil && s.SCG.RAT == band.RATNR:
		return State5GNSA
	default:
		return State4GOnly
	}
}

// Cells returns all serving cells, MCG first.
func (s Set) Cells() []Ref { return append(s.MCG.Cells(), s.SCG.Cells()...) }

// Contains reports whether r serves in either group.
func (s Set) Contains(r Ref) bool { return s.MCG.Contains(r) || s.SCG.Contains(r) }

// Key returns a canonical string identifying the set's membership; two
// sets with the same cells in the same roles share a Key. Loop detection
// compares CS sequences with Equal, which builds no key, and renders
// keys only for a confirmed loop's cycle, to name it.
func (s Set) Key() string {
	var buf [128]byte
	b := append(s.MCG.appendKey(buf[:0]), '|')
	return string(s.SCG.appendKey(b))
}

// String renders a readable summary such as
// "5G SA {PCell 393@521310 +3 SCells}".
func (s Set) String() string {
	if s.IsIdle() {
		return "IDLE"
	}
	var b strings.Builder
	b.WriteString(s.State().String())
	b.WriteString(" {PCell ")
	b.WriteString(s.MCG.Primary.String())
	if n := len(s.MCG.SCells); n > 0 {
		fmt.Fprintf(&b, " +%d SCells", n)
	}
	if s.SCG != nil {
		fmt.Fprintf(&b, "; PSCell %s", s.SCG.Primary)
		if n := len(s.SCG.SCells); n > 0 {
			fmt.Fprintf(&b, " +%d SCells", n)
		}
	}
	b.WriteString("}")
	return b.String()
}

// Equal reports whether two sets have identical membership and roles:
// per group the same RAT, the same primary and the same SCells counted
// with multiplicity in any order, and a nil group equal only to nil. It
// is exactly s.Key() == o.Key(), without building either key.
func (s Set) Equal(o Set) bool { return s.MCG.equal(o.MCG) && s.SCG.equal(o.SCG) }

// equal is Set.Equal for one group.
func (g *Group) equal(o *Group) bool {
	if g == nil || o == nil {
		return g == o
	}
	return g.RAT == o.RAT && g.Primary == o.Primary && sameMultiset(g.SCells, o.SCells)
}

// sameMultiset reports whether a and b hold the same refs with the same
// multiplicities, in any order.
func sameMultiset(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true // the common case: same SCells in the same order
	}
	for _, r := range a {
		if count(a, r) != count(b, r) {
			return false
		}
	}
	return true
}

// count returns how many times r occurs in refs.
func count(refs []Ref, r Ref) int {
	n := 0
	for _, x := range refs {
		if x == r {
			n++
		}
	}
	return n
}
