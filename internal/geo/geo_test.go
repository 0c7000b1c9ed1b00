package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

// TestDistSymmetric property: distance is symmetric and nonnegative.
func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a) && a.Dist(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 0})
	if r.Min != (Point{0, 0}) || r.Max != (Point{10, 20}) {
		t.Errorf("NewRect normalization: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 20 {
		t.Errorf("dims: %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{-1, 5}) {
		t.Error("Contains wrong")
	}
}

func TestSampleSparseSeparation(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2000, 2000})
	rng := rand.New(rand.NewSource(42))
	pts := SampleSparse(r, 25, 200, rng)
	if len(pts) != 25 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := range pts {
		if !r.Contains(pts[i]) {
			t.Errorf("point %v outside rect", pts[i])
		}
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < 150 { // allow the documented relaxation
				t.Errorf("points %d,%d too close: %.0f m", i, j, d)
			}
		}
	}
}

func TestSampleSparseDeterministic(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{1000, 1000})
	a := SampleSparse(r, 10, 100, rand.New(rand.NewSource(7)))
	b := SampleSparse(r, 10, 100, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic sampling at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSampleSparseRelaxes(t *testing.T) {
	// Impossible separation in a tiny rect must still terminate.
	r := NewRect(Point{0, 0}, Point{10, 10})
	pts := SampleSparse(r, 5, 1000, rand.New(rand.NewSource(1)))
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestDenseGrid(t *testing.T) {
	pts := DenseGrid(Point{100, 100}, 25, 2)
	if len(pts) != 25 {
		t.Fatalf("grid size = %d, want 25", len(pts))
	}
	// Corner and center present.
	found := map[Point]bool{}
	for _, p := range pts {
		found[p] = true
	}
	for _, want := range []Point{{100, 100}, {50, 50}, {150, 150}, {50, 150}} {
		if !found[want] {
			t.Errorf("missing grid point %v", want)
		}
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{12.4, -3.6}).String(); s != "(12,-4)" {
		t.Errorf("String = %q", s)
	}
}
