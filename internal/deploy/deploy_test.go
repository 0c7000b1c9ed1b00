package deploy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/units"
)

func TestAreasInventory(t *testing.T) {
	areas := Areas()
	if len(areas) != 11 {
		t.Fatalf("areas = %d, want 11", len(areas))
	}
	// Table 3: 46 OPT locations, 28 OPA, 28 OPV.
	locs := map[string]int{}
	for _, a := range areas {
		locs[a.Operator] += a.Locations
		if a.City != "C1" && a.City != "C2" {
			t.Errorf("%s: bad city %q", a.ID, a.City)
		}
		var total float64
		for _, w := range a.Weights {
			if w.W < 0 {
				t.Errorf("%s: negative weight for %v", a.ID, w.Arch)
			}
			total += w.W
		}
		if math.Abs(total-1) > 0.01 {
			t.Errorf("%s: weights sum to %.3f", a.ID, total)
		}
	}
	if locs["OPT"] != 46 || locs["OPA"] != 28 || locs["OPV"] != 28 {
		t.Errorf("location totals = %v, want OPT 46 / OPA 28 / OPV 28", locs)
	}
	// F13: N1E2 never configured for OPV areas.
	for _, a := range AreasFor("OPV") {
		for _, w := range a.Weights {
			if w.Arch == ArchN1E2 && w.W > 0 {
				t.Errorf("%s: OPV must not have N1E2 weight", a.ID)
			}
		}
	}
}

func TestAreaLookup(t *testing.T) {
	if _, ok := AreaByID("A1"); !ok {
		t.Error("A1 missing")
	}
	if _, ok := AreaByID("A99"); ok {
		t.Error("A99 should not exist")
	}
	if got := len(AreasFor("OPT")); got != 5 {
		t.Errorf("OPT areas = %d", got)
	}
}

func TestBuildDeterministic(t *testing.T) {
	op := policy.OPT()
	area, _ := AreaByID("A1")
	a := Build(op, area, 7)
	b := Build(op, area, 7)
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("cluster counts differ")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Arch != b.Clusters[i].Arch || a.Clusters[i].Loc != b.Clusters[i].Loc {
			t.Fatalf("cluster %d differs", i)
		}
		for j, c := range a.Clusters[i].Cells {
			if *c != *b.Clusters[i].Cells[j] {
				t.Fatalf("cell %d/%d differs", i, j)
			}
		}
	}
}

func TestArchetypeQuotaTracksWeights(t *testing.T) {
	area, _ := AreaByID("A1")
	rng := rand.New(rand.NewSource(3))
	archs := archetypeQuota(area.Weights, area.Locations, rng)
	if len(archs) != area.Locations {
		t.Fatalf("quota length = %d", len(archs))
	}
	counts := map[Archetype]int{}
	for _, a := range archs {
		counts[a]++
	}
	for _, w := range area.Weights {
		want := w.W * float64(area.Locations)
		got := float64(counts[w.Arch])
		if math.Abs(got-want) > 1 {
			t.Errorf("%v count = %v, want ≈ %.1f", w.Arch, got, want)
		}
	}
}

func TestSACalibration(t *testing.T) {
	op := policy.OPT()
	area, _ := AreaByID("A1")
	d := Build(op, area, 11)
	for _, cl := range d.Clusters {
		// Every OPT cluster carries the showcase structure: n41 anchors,
		// the 398410 partner and the co-channel 387410 pair.
		pair := cl.CellsOnChannel(387410)
		if len(pair) != 2 {
			t.Fatalf("cluster %d: %d cells on 387410", cl.Index, len(pair))
		}
		if len(cl.CellsOnChannel(521310)) != 1 || len(cl.CellsOnChannel(501390)) != 2 {
			t.Errorf("cluster %d: anchor structure wrong", cl.Index)
		}
		a := d.Field.Median(pair[0], cl.Loc).RSRPDBm
		b := d.Field.Median(pair[1], cl.Loc).RSRPDBm
		gap := math.Abs(a.Sub(b).Float())
		switch cl.Arch {
		case ArchS1E3:
			if gap > 11.5 {
				t.Errorf("S1E3 cluster %d: gap %.1f too wide", cl.Index, gap)
			}
		case ArchClean:
			if gap < 12 {
				t.Errorf("clean cluster %d: gap %.1f too narrow", cl.Index, gap)
			}
		case ArchS1E1:
			worst := units.DBm(math.Min(a.Float(), b.Float()))
			if worst > -125 {
				t.Errorf("S1E1 cluster %d: partner %.1f should be below the floor", cl.Index, worst)
			}
		}
		// Anchors must clear the selection threshold.
		anchor := cl.CellsOnChannel(521310)[0]
		if m := d.Field.Median(anchor, cl.Loc); m.RSRPDBm < -95 {
			t.Errorf("cluster %d: anchor median %.1f too weak", cl.Index, m.RSRPDBm)
		}
	}
}

func TestNSACalibration(t *testing.T) {
	for _, opName := range []string{"OPA", "OPV"} {
		op := policy.ByName(opName)
		area := AreasFor(opName)[0]
		d := Build(op, area, 11)
		problem := op.ProblemChannel()
		for _, cl := range d.Clusters {
			if len(cl.CellsOnChannel(problem)) == 0 {
				t.Errorf("%s cluster %d: no problem-channel cell", opName, cl.Index)
			}
			nr := 0
			for _, c := range cl.Cells {
				if c.RAT == band.RATNR {
					nr++
				}
			}
			if nr < 3 {
				t.Errorf("%s cluster %d: %d NR cells", opName, cl.Index, nr)
			}
			// The NR anchor channel must carry the co-channel pair that
			// drives N2E2.
			if got := len(cl.CellsOnChannel(op.NRChannels[0])); got != 2 {
				t.Errorf("%s cluster %d: %d cells on the NR anchor channel", opName, cl.Index, got)
			}
		}
	}
}

func TestClusterAccessors(t *testing.T) {
	op := policy.OPT()
	area, _ := AreaByID("A2")
	d := Build(op, area, 5)
	cl := d.Clusters[0]
	if got := len(cl.CellsOnChannel(-1)); got != 0 {
		t.Errorf("CellsOnChannel(-1) = %d", got)
	}
}

// TestClusterRefsDistinct checks the Cluster contract the run engine
// relies on: no two cells of a cluster share a Ref, in any area at any
// seed.
func TestClusterRefsDistinct(t *testing.T) {
	clusters := 0
	for seed := int64(0); seed < 200; seed++ {
		for _, area := range Areas() {
			d := Build(policy.ByName(area.Operator), area, seed)
			for _, cl := range d.Clusters {
				clusters++
				seen := make(map[cell.Ref]bool, len(cl.Cells))
				for _, c := range cl.Cells {
					if seen[c.Ref] {
						t.Fatalf("seed %d %s location %d: two cells share Ref %v", seed, area.ID, cl.Index, c.Ref)
					}
					seen[c.Ref] = true
				}
			}
		}
	}
	if clusters != 200*102 {
		t.Errorf("checked %d clusters, want %d", clusters, 200*102)
	}
}

func TestArchetypeString(t *testing.T) {
	for a, want := range map[Archetype]string{
		ArchClean: "clean", ArchBenignSwap: "benign-swap",
		ArchS1E1: "s1e1", ArchS1E2: "s1e2", ArchS1E3: "s1e3",
		ArchN1E1: "n1e1", ArchN1E2: "n1e2", ArchN2E1: "n2e1", ArchN2E2: "n2e2",
	} {
		if a.String() != want {
			t.Errorf("%d = %q, want %q", a, a, want)
		}
	}
	if Archetype(99).String() != "Archetype(99)" {
		t.Error("unknown archetype string")
	}
}

func TestSqrtApprox(t *testing.T) {
	for _, x := range []float64{0.25, 1, 2, 2.9, 9, 100} {
		if got := sqrtApprox(x); math.Abs(got-math.Sqrt(x)) > 1e-9 {
			t.Errorf("sqrtApprox(%v) = %v", x, got)
		}
	}
	if sqrtApprox(0) != 0 || sqrtApprox(-1) != 0 {
		t.Error("nonpositive input")
	}
}
