// Package geo provides the small amount of 2-D geometry the simulator
// needs: points in a local metric frame (meters east/north of an area
// origin), distances, bounding boxes, and deterministic location
// sampling for sparse and dense spatial measurement layouts.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in a local planar frame, in meters.
type Point struct {
	X float64 // meters east of the area origin
	Y float64 // meters north of the area origin
}

// P is a terse Point constructor for call sites outside this package.
func P(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance in meters between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// String formats the point as "(x,y)" with meter precision.
func (p Point) String() string { return fmt.Sprintf("(%.0f,%.0f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, used as an area boundary.
type Rect struct {
	Min Point // lower-left corner
	Max Point // upper-right corner
}

// NewRect returns the rectangle spanning the given corners regardless of
// their order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the rectangle's horizontal extent in meters.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's vertical extent in meters.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside (or on the border of) r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// SampleSparse draws n locations inside r that are pairwise at least
// minSep meters apart, mirroring the paper's sparse spatial methodology
// (§4.1: locations ≥ 200 m apart so spatial correlation does not couple
// them). It uses rejection sampling with a deterministic source; if the
// separation constraint cannot be met it gradually relaxes minSep so the
// call always succeeds.
func SampleSparse(r Rect, n int, minSep float64, rng *rand.Rand) []Point {
	pts := make([]Point, 0, n)
	sep := minSep
	attempts := 0
	for len(pts) < n {
		p := Point{
			X: r.Min.X + rng.Float64()*r.Width(),
			Y: r.Min.Y + rng.Float64()*r.Height(),
		}
		ok := true
		for _, q := range pts {
			if p.Dist(q) < sep {
				ok = false
				break
			}
		}
		if ok {
			pts = append(pts, p)
			attempts = 0
			continue
		}
		attempts++
		if attempts > 200 {
			// The rectangle is too crowded for this separation;
			// relax it so the sampler terminates.
			sep *= 0.9
			attempts = 0
		}
	}
	return pts
}

// DenseGrid returns a grid of locations centered at c with the given
// spacing (meters) and half-extent steps in each direction, mirroring
// the paper's fine-grained spatial analysis around a showcase site
// (§6: >30 locations near P16).
func DenseGrid(c Point, spacing float64, steps int) []Point {
	pts := make([]Point, 0, (2*steps+1)*(2*steps+1))
	for i := -steps; i <= steps; i++ {
		for j := -steps; j <= steps; j++ {
			pts = append(pts, Point{c.X + float64(i)*spacing, c.Y + float64(j)*spacing})
		}
	}
	return pts
}
