package cell

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/racecheck"
)

// oracleGroupKey is a group's key as Set.Key built it before it
// appended into one buffer: a sorted heap copy of the SCells, and every
// ref rendered by fmt.
func oracleGroupKey(g *Group) string {
	if g == nil {
		return "-"
	}
	sc := append([]Ref(nil), g.SCells...)
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].Channel != sc[j].Channel {
			return sc[i].Channel < sc[j].Channel
		}
		return sc[i].PCI < sc[j].PCI
	})
	var b strings.Builder
	b.WriteString(g.RAT.String())
	b.WriteByte(':')
	fmt.Fprintf(&b, "%d@%d", g.Primary.PCI, g.Primary.Channel)
	for _, s := range sc {
		fmt.Fprintf(&b, "+%d@%d", s.PCI, s.Channel)
	}
	return b.String()
}

// oracleKey is Set.Key as it was built with fmt and sort.Slice.
func oracleKey(s Set) string { return oracleGroupKey(s.MCG) + "|" + oracleGroupKey(s.SCG) }

func TestRefString(t *testing.T) {
	r := Ref{PCI: 393, Channel: 521310}
	if r.String() != "393@521310" {
		t.Errorf("String = %q", r)
	}
	for _, r := range []Ref{{}, {-1, -2}, {math.MaxInt, math.MinInt}, {1007, 1}} {
		if got, want := r.String(), fmt.Sprintf("%d@%d", r.PCI, r.Channel); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// TestSetKeyAllocatesOnce: a set's key, up to eight SCells a group,
// costs one allocation, the string it returns.
func TestSetKeyAllocatesOnce(t *testing.T) {
	s := Set{MCG: NewGroup(band.RATNR, MustRef("393@521310")), SCG: NewGroup(band.RATLTE, MustRef("380@5145"))}
	for _, r := range []string{"273@398410", "273@387410", "371@387410", "393@501390"} {
		s.MCG.AddSCell(MustRef(r))
	}
	want := "5G:393@521310+273@387410+371@387410+273@398410+393@501390|4G:380@5145"
	if got := s.Key(); got != want || got != oracleKey(s) {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if racecheck.Enabled {
		t.Skip("allocation counts are perturbed by race instrumentation")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Key() }); allocs != 1 {
		t.Errorf("Key allocates %.1f times, want 1", allocs)
	}
}

func TestParseRef(t *testing.T) {
	r, err := ParseRef("273@387410")
	if err != nil {
		t.Fatal(err)
	}
	if r != (Ref{273, 387410}) {
		t.Errorf("ParseRef = %v", r)
	}
	for _, bad := range []string{"", "@", "273", "273@", "@387410", "x@1", "1@y"} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) should fail", bad)
		}
	}
}

// TestRefRoundTrip property: String/ParseRef round-trip.
func TestRefRoundTrip(t *testing.T) {
	f := func(pci uint16, ch uint32) bool {
		r := Ref{PCI: int(pci), Channel: int(ch % 3279166)}
		got, err := ParseRef(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustRefPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRef should panic on malformed input")
		}
	}()
	MustRef("bogus")
}

func TestCellDerived(t *testing.T) {
	c := &Cell{Ref: MustRef("393@521310"), RAT: band.RATNR}
	if c.Band() != "n41" {
		t.Errorf("Band = %q", c.Band())
	}
	if w := c.WidthMHz(); w != 90 {
		t.Errorf("Width = %v", w)
	}
	if f := c.FreqMHz(); f < 2606 || f > 2608 {
		t.Errorf("Freq = %v", f)
	}
	lte := &Cell{Ref: MustRef("380@5815"), RAT: band.RATLTE}
	if lte.Band() != "17" {
		t.Errorf("LTE cell: band=%q", lte.Band())
	}
}

func TestGroupMembership(t *testing.T) {
	g := NewGroup(band.RATNR, MustRef("393@521310"))
	if !g.AddSCell(MustRef("273@387410")) {
		t.Error("first add should succeed")
	}
	if g.AddSCell(MustRef("273@387410")) {
		t.Error("duplicate add should be a no-op")
	}
	if g.AddSCell(g.Primary) {
		t.Error("adding the primary as SCell should be rejected")
	}
	if !g.Contains(MustRef("273@387410")) || !g.Contains(g.Primary) {
		t.Error("Contains failed")
	}
	if got := len(g.Cells()); got != 2 {
		t.Errorf("Cells len = %d", got)
	}
	if !g.RemoveSCell(MustRef("273@387410")) {
		t.Error("remove should succeed")
	}
	if g.RemoveSCell(MustRef("273@387410")) {
		t.Error("second remove should fail")
	}
}

func TestGroupClone(t *testing.T) {
	g := NewGroup(band.RATNR, MustRef("393@521310"))
	g.AddSCell(MustRef("273@387410"))
	cp := g.Clone()
	cp.AddSCell(MustRef("273@398410"))
	if len(g.SCells) != 1 {
		t.Error("Clone aliases SCells")
	}
	var nilg *Group
	if nilg.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestGroupKeyOrderInsensitive(t *testing.T) {
	a := NewGroup(band.RATNR, MustRef("393@521310"))
	a.AddSCell(MustRef("273@387410"))
	a.AddSCell(MustRef("273@398410"))
	b := NewGroup(band.RATNR, MustRef("393@521310"))
	b.AddSCell(MustRef("273@398410"))
	b.AddSCell(MustRef("273@387410"))
	if ka, kb := string(a.appendKey(nil)), string(b.appendKey(nil)); ka != kb {
		t.Errorf("keys differ: %q vs %q", ka, kb)
	}
}

func TestSetStates(t *testing.T) {
	idle := Idle()
	if !idle.IsIdle() || idle.State() != StateIdle || idle.Uses5G() {
		t.Errorf("idle set wrong: %v", idle)
	}
	sa := Set{MCG: NewGroup(band.RATNR, MustRef("393@521310"))}
	if sa.State() != State5GSA || !sa.Uses5G() {
		t.Errorf("SA set wrong: %v", sa)
	}
	nsa := Set{
		MCG: NewGroup(band.RATLTE, MustRef("380@5145")),
		SCG: NewGroup(band.RATNR, MustRef("53@632736")),
	}
	if nsa.State() != State5GNSA || !nsa.Uses5G() {
		t.Errorf("NSA set wrong: %v", nsa)
	}
	lteOnly := Set{MCG: NewGroup(band.RATLTE, MustRef("380@5815"))}
	if lteOnly.State() != State4GOnly || lteOnly.Uses5G() {
		t.Errorf("4G-only set wrong: %v", lteOnly)
	}
}

func TestSetKeyAndEqual(t *testing.T) {
	a := Set{MCG: NewGroup(band.RATNR, MustRef("393@521310"))}
	a.MCG.AddSCell(MustRef("273@387410"))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be Equal")
	}
	b.MCG.AddSCell(MustRef("273@398410"))
	if a.Equal(b) {
		t.Error("differing sets compare Equal")
	}
	if a.Key() == Idle().Key() {
		t.Error("connected and idle share a key")
	}
}

// fuzzSet decodes bytes into a set drawn from a small alphabet, so that
// generated sets often share cells: each group is nil or carries a raw
// RAT byte (unknown RATs included), one of four primaries and up to
// five SCells from four refs, duplicates allowed.
func fuzzSet(data []byte) Set {
	refs := [...]Ref{{273, 387410}, {371, 387410}, {273, 398410}, {393, 521310}}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	group := func() *Group {
		b := next()
		if b%4 == 0 {
			return nil
		}
		g := &Group{RAT: band.RAT(next() % 4), Primary: refs[b>>2%4]}
		for n := int(b>>4) % 6; n > 0; n-- {
			g.SCells = append(g.SCells, refs[next()%4])
		}
		return g
	}
	return Set{MCG: group(), SCG: group()}
}

// FuzzSetEqual pins Equal to the key comparison it replaced: two sets
// are Equal exactly when their Keys match. It also holds Key to the
// oracle's fmt and sort.Slice rendering. The second set is either
// decoded independently or a permuted copy of the first, so equal pairs
// with reordered duplicate SCells come up as often as unequal ones.
func FuzzSetEqual(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0x21, 2, 1, 0, 0x11, 1, 3}, []byte{0x21, 2, 0, 1, 0x11, 1, 3}, uint8(0))
	f.Add([]byte{0x35, 2, 1, 1, 2, 0}, []byte{0x35, 2, 2, 1, 1, 0}, uint8(1))
	f.Add([]byte{0x21, 3, 1, 0x21, 1, 1}, []byte{0x21, 1, 1, 0x21, 3, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, da, db []byte, mode uint8) {
		a := fuzzSet(da)
		b := fuzzSet(db)
		if mode%2 == 1 {
			// A copy of a with each group's SCells rotated.
			b = a.Clone()
			for _, g := range []*Group{b.MCG, b.SCG} {
				if g != nil && len(g.SCells) > 0 {
					k := int(mode>>1) % len(g.SCells)
					g.SCells = append(g.SCells[k:], g.SCells[:k]...)
				}
			}
		}
		for _, s := range []Set{a, b} {
			if got, want := s.Key(), oracleKey(s); got != want {
				t.Fatalf("Key = %q, the oracle's %q", got, want)
			}
		}
		want := a.Key() == b.Key()
		if got := a.Equal(b); got != want {
			t.Fatalf("Equal = %v, keys %q and %q say %v", got, a.Key(), b.Key(), want)
		}
		if got := b.Equal(a); got != want {
			t.Fatalf("Equal is not symmetric for %q and %q", a.Key(), b.Key())
		}
		if !a.Equal(a) {
			t.Fatalf("%q is not Equal to itself", a.Key())
		}
	})
}

func TestSetCellsAndContains(t *testing.T) {
	s := Set{
		MCG: NewGroup(band.RATLTE, MustRef("380@5145")),
		SCG: NewGroup(band.RATNR, MustRef("53@632736")),
	}
	s.SCG.AddSCell(MustRef("53@658080"))
	if got := len(s.Cells()); got != 3 {
		t.Errorf("Cells = %d", got)
	}
	if !s.Contains(MustRef("53@658080")) || s.Contains(MustRef("1@2")) {
		t.Error("Contains wrong")
	}
}

func TestSetString(t *testing.T) {
	if Idle().String() != "IDLE" {
		t.Errorf("idle String = %q", Idle())
	}
	s := Set{MCG: NewGroup(band.RATNR, MustRef("393@521310"))}
	s.MCG.AddSCell(MustRef("273@387410"))
	s.MCG.AddSCell(MustRef("273@398410"))
	s.MCG.AddSCell(MustRef("393@501390"))
	want := "5G SA {PCell 393@521310 +3 SCells}"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s, want)
	}
	nsa := Set{
		MCG: NewGroup(band.RATLTE, MustRef("380@5145")),
		SCG: NewGroup(band.RATNR, MustRef("53@632736")),
	}
	if got := nsa.String(); got != "5G NSA {PCell 380@5145; PSCell 53@632736}" {
		t.Errorf("NSA String = %q", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateIdle: "IDLE", State5GSA: "5G SA", State5GNSA: "5G NSA", State4GOnly: "4G only",
	} {
		if s.String() != want {
			t.Errorf("State %d = %q, want %q", s, s, want)
		}
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state string")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Set{MCG: NewGroup(band.RATNR, MustRef("393@521310"))}
	cp := s.Clone()
	cp.MCG.AddSCell(MustRef("273@387410"))
	if len(s.MCG.SCells) != 0 {
		t.Error("Clone aliases MCG")
	}
}

func TestNCIPacking(t *testing.T) {
	n := MakeNCI(0xABCDEF, 0x123)
	if n.GNB() != 0xABCDEF || n.CellID() != 0x123 {
		t.Errorf("NCI round trip: gnb=%x cell=%x", n.GNB(), n.CellID())
	}
	// Overflowing inputs are masked to their field widths.
	m := MakeNCI(0xFFFFFFFF, 0xFFFF)
	if m.GNB() != 0xFFFFFF || m.CellID() != 0xFFF {
		t.Errorf("masking: gnb=%x cell=%x", m.GNB(), m.CellID())
	}
}

func TestCGIPacking(t *testing.T) {
	nci := MakeNCI(12345, 678)
	cgi := CGI(PLMNTMobileUS, nci)
	plmn, back := SplitCGI(cgi)
	if plmn != PLMNTMobileUS || back != nci {
		t.Errorf("CGI round trip: plmn=%d nci=%x", plmn, back)
	}
	// The printed value lands in the same magnitude as the appendix's
	// 85575131757084985 (a 17-digit decimal).
	if cgi < 1e16 || cgi > 1e18 {
		t.Errorf("CGI magnitude off: %d", cgi)
	}
}

func TestDeriveCGIStable(t *testing.T) {
	r := MustRef("393@521310")
	if DeriveCGI(r) != DeriveCGI(r) {
		t.Error("derivation must be deterministic")
	}
	if DeriveCGI(r) == DeriveCGI(MustRef("393@501390")) {
		t.Error("different channels must derive different CGIs")
	}
	if DeriveNCI(r).CellID() != 393 {
		t.Errorf("cell ID should carry the PCI: %d", DeriveNCI(r).CellID())
	}
}
