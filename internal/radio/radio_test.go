package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mssn/loopscope/internal/band"
	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/units"
)

func testCell(ref string, pos geo.Point, tx units.DBm) *cell.Cell {
	return &cell.Cell{Ref: cell.MustRef(ref), RAT: band.RATNR, Pos: pos, TxPowerDBm: tx, MIMOLayers: 2}
}

func TestMedianDeterministic(t *testing.T) {
	c := testCell("393@521310", geo.P(0, 0), 45)
	f1 := NewField(11)
	f2 := NewField(11)
	p := geo.P(150, 220)
	if f1.Median(c, p) != f2.Median(c, p) {
		t.Error("same-seed fields disagree")
	}
	f3 := NewField(12)
	if f1.Median(c, p) == f3.Median(c, p) {
		t.Error("different seeds should differ")
	}
}

func TestPathLossDistanceMonotone(t *testing.T) {
	c := testCell("393@521310", geo.P(0, 0), 45)
	f := NewField(1)
	f.ShadowSigmaDB = 0 // isolate the deterministic path-loss trend
	prev := units.DBm(math.Inf(1))
	for _, d := range []float64{20, 50, 100, 200, 400, 800, 1600} {
		m := f.Median(c, geo.P(d, 0))
		if m.RSRPDBm >= prev {
			t.Errorf("RSRP did not decay at %vm: %v >= %v", d, m.RSRPDBm, prev)
		}
		prev = m.RSRPDBm
	}
}

func TestHigherFrequencyWeaker(t *testing.T) {
	f := NewField(1)
	f.ShadowSigmaDB = 0
	low := testCell("1@126270", geo.P(0, 0), 45)  // n71, ~631 MHz
	high := testCell("1@632736", geo.P(0, 0), 45) // n77, ~3491 MHz
	p := geo.P(300, 0)
	if f.Median(low, p).RSRPDBm <= f.Median(high, p).RSRPDBm {
		t.Error("low band should propagate farther than high band")
	}
}

func TestShadowingSmooth(t *testing.T) {
	c := testCell("273@387410", geo.P(0, 0), 45)
	f := NewField(5)
	// Adjacent points (1 m apart) must have nearly identical shadowing.
	for i := 0; i < 50; i++ {
		p := geo.P(float64(i)*37.7, float64(i)*13.3)
		a := f.Median(c, p).RSRPDBm
		b := f.Median(c, p.Add(1, 0)).RSRPDBm
		if math.Abs(a.Sub(b).Float()) > 1.5 {
			t.Errorf("field discontinuity at %v: %.2f vs %.2f", p, a, b)
		}
	}
}

func TestShadowIndependentPerCell(t *testing.T) {
	// Two co-channel cells at the same tower must fade independently:
	// their RSRP difference must vary over space (this drives Fig. 20).
	a := testCell("273@387410", geo.P(0, 0), 45)
	b := testCell("371@387410", geo.P(0, 0), 45)
	f := NewField(5)
	var gaps []float64
	for i := 0; i < 100; i++ {
		p := geo.P(float64(i%10)*80, float64(i/10)*80)
		gaps = append(gaps, f.Median(a, p).RSRPDBm.Sub(f.Median(b, p).RSRPDBm).Float())
	}
	var mean, ss float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	if sd := math.Sqrt(ss / float64(len(gaps))); sd < 2 {
		t.Errorf("co-channel gap should vary over space, sd=%.2f", sd)
	}
}

func TestSampleFadesAroundMedian(t *testing.T) {
	c := testCell("393@521310", geo.P(0, 0), 45)
	f := NewField(3)
	p := geo.P(200, 100)
	med := f.Median(c, p).RSRPDBm
	rng := rand.New(rand.NewSource(9))
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		sum += f.Sample(c, p, rng).RSRPDBm.Float()
	}
	if avg := sum / float64(n); math.Abs(avg-med.Float()) > 0.5 {
		t.Errorf("sample mean %.2f far from median %.2f", avg, med)
	}
}

// TestFadeDrawsTwoNormals pins the contract a caller that keeps
// medians relies on: Fade around a kept median equals Sample, and each
// call consumes exactly two normals of the RNG stream.
func TestFadeDrawsTwoNormals(t *testing.T) {
	c := testCell("273@387410", geo.P(0, 0), 40)
	f := NewField(3)
	p := geo.P(120, -40)
	m := f.Median(c, p)
	kept, fresh, ref := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if got, want := f.Fade(c, m, kept), f.Sample(c, p, fresh); got != want {
			t.Fatalf("sample %d: Fade around the kept median = %+v, Sample = %+v", i, got, want)
		}
		ref.NormFloat64()
		ref.NormFloat64()
	}
	if kept.Int63() != ref.Int63() {
		t.Error("Fade did not consume exactly two normals per call")
	}
}

func TestRSRQShape(t *testing.T) {
	// Good coverage ⇒ about −10.5 dB; the Fig. 28 bad apple at
	// −108.5 dBm reports −25.5 dB.
	if q := rsrqFromRSRP(-80, 0); math.Abs(q.Float()+10.5) > 0.01 {
		t.Errorf("RSRQ at -80 = %v", q)
	}
	if q := rsrqFromRSRP(-108.5, 0); math.Abs(q.Float()-(-25.1)) > 1.5 {
		t.Errorf("RSRQ at -108.5 = %v, want about -25", q)
	}
	if q := rsrqFromRSRP(-150, 0); q != -30 {
		t.Errorf("RSRQ floor = %v", q)
	}
	if q := rsrqFromRSRP(0, -20); q != -5 {
		t.Errorf("RSRQ ceiling = %v", q)
	}
}

// TestRSRQMonotone property: RSRQ never improves as RSRP degrades.
func TestRSRQMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return rsrqFromRSRP(units.DBm(lo), 0) <= rsrqFromRSRP(units.DBm(hi), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGauss01Distribution(t *testing.T) {
	// The lattice noise should be roughly standard normal.
	var sum, ss float64
	n := 10000
	for i := 0; i < n; i++ {
		v := gauss01(hash64(int64(i), 77))
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("gauss01 mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("gauss01 variance = %v", variance)
	}
}
