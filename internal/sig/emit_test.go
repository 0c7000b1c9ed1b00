package sig

import (
	"math"
	"strconv"
	"testing"
)

// FuzzAppendFloat1 holds the emitter's exact one-decimal renderer to
// strconv.AppendFloat(v, 'f', 1, 64), the %.1f rendering it replaces,
// on every float64 bit pattern.
func FuzzAppendFloat1(f *testing.F) {
	for _, v := range []float64{
		0.25, 0.75, -0.04, 0.05, 0.15, 0.95, 9.95, 99.95, -0.25, 1.25,
		0, math.Copysign(0, -1),
		5e-324, math.SmallestNonzeroFloat64 * 3, 0x1p-1022, -0x1p-1023,
		1 << 59, -(1 << 59), math.Nextafter(1<<59, 0), 1 << 58, 0x1p-57, 0x1p-58,
		math.NaN(), math.Inf(1), math.Inf(-1),
		-95.3, -11.65, -140, -44.05, 31, math.MaxFloat64,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want := strconv.AppendFloat([]byte("x="), v, 'f', 1, 64)
		if got := appendFloat1([]byte("x="), v); string(got) != string(want) {
			t.Fatalf("appendFloat1(%b) = %q, want %q", v, got, want)
		}
	})
}
