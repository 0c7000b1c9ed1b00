package units

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// The whole point of named float64 types is that they are free: the
// refactor must leave the study output byte-identical. These tests pin
// the representational guarantees the rest of the module leans on.

func TestAlgebraIsBitwiseIdenticalToFloat64(t *testing.T) {
	cases := [][2]float64{
		{-97.3, -104.25}, {-82, -82}, {0, -0.0}, {-125, 13.75},
		{math.Inf(1), -60}, {-1e-9, 1e-9},
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		if got := DBm(a).Sub(DBm(b)).Float(); math.Float64bits(got) != math.Float64bits(a-b) {
			t.Errorf("DBm(%g).Sub(%g) = %g, want bitwise a-b = %g", a, b, got, a-b)
		}
		if got := DBm(a).Add(DB(b)).Float(); math.Float64bits(got) != math.Float64bits(a+b) {
			t.Errorf("DBm(%g).Add(%g) = %g, want bitwise a+b = %g", a, b, got, a+b)
		}
		if got := DB(a).Scale(b).Float(); math.Float64bits(got) != math.Float64bits(b*a) {
			t.Errorf("DB(%g).Scale(%g) = %g, want bitwise b*a = %g", a, b, got, b*a)
		}
		if got := Level(a).Shift(DB(b)).Float(); math.Float64bits(got) != math.Float64bits(a+b) {
			t.Errorf("Level(%g).Shift(%g) = %g, want bitwise a+b = %g", a, b, got, a+b)
		}
	}
}

func TestFormattingMatchesFloat64(t *testing.T) {
	for _, v := range []float64{-97.3, -0.55, 0, 387410, -30} {
		if got, want := fmt.Sprintf("%g", DBm(v)), fmt.Sprintf("%g", v); got != want {
			t.Errorf("%%g of DBm(%v) = %q, want %q", v, got, want)
		}
		if got, want := fmt.Sprintf("%.1f", DB(v)), fmt.Sprintf("%.1f", v); got != want {
			t.Errorf("%%.1f of DB(%v) = %q, want %q", v, got, want)
		}
	}
	got, err := json.Marshal(struct {
		R DBm `json:"rsrp"`
		Q DB  `json:"rsrq"`
	}{-104.25, -17.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"rsrp":-104.25,"rsrq":-17.5}`; string(got) != want {
		t.Errorf("json = %s, want %s", got, want)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(DBm(-97.3), DBm(-97.3)) {
		t.Error("identical levels must compare equal")
	}
	if !ApproxEqual(DB(1.0), DB(1.0+1e-12)) {
		t.Error("sub-epsilon difference must compare equal")
	}
	if ApproxEqual(DBm(-97.3), DBm(-97.4)) {
		t.Error("0.1 dB apart must not compare equal")
	}
	if !ApproxEqualEps(-82.0, -81.5, 0.6) {
		t.Error("explicit eps must widen the tolerance")
	}
	if ApproxEqual(Level(math.NaN()), Level(math.NaN())) {
		t.Error("NaN never compares equal")
	}
}
