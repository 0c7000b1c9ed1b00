// Package radio provides the synthetic radio environment: a
// deterministic RSRP/RSRQ field over space (path loss + spatially
// correlated shadowing + per-sample fading). The measurement vocabulary
// it samples into — and the 3GPP events (A2, A3, A5, B1) the RRC
// procedures key on — lives in internal/meas, on the analysis side of
// the methodology boundary.
//
// The paper's findings hinge on *relative* signal relationships — RSRP
// gaps between intra-channel cells (F16), gaps between candidate PCells
// (F17), and per-channel coverage differences (F14) — so the field is
// built to produce realistic spatial gradients and temporal jitter
// rather than to model any specific propagation campaign.
package radio

import (
	"math"
	"math/rand"

	"github.com/mssn/loopscope/internal/cell"
	"github.com/mssn/loopscope/internal/geo"
	"github.com/mssn/loopscope/internal/meas"
	"github.com/mssn/loopscope/internal/units"
)

// Field is a deterministic radio map: given a cell and a location it
// returns the local median measurement, and given an additional time and
// RNG it returns a faded sample. Two Fields built with the same seed and
// cells agree everywhere.
type Field struct {
	seed int64
	// ShadowSigmaDB is the standard deviation of the spatially
	// correlated shadowing component (log-normal shadowing).
	ShadowSigmaDB units.DB
	// ShadowCorrLenM is the correlation length of shadowing.
	ShadowCorrLenM units.Meters
	// FadeSigmaDB is the standard deviation of the per-sample fast
	// fading added by Fade.
	FadeSigmaDB units.DB
}

// NewField returns a Field with the study's default fading parameters.
func NewField(seed int64) *Field {
	return &Field{
		seed:           seed,
		ShadowSigmaDB:  5,
		ShadowCorrLenM: 60,
		FadeSigmaDB:    3.5,
	}
}

// pathLossDB follows the 3GPP TR 38.901 UMa LOS shape:
// PL = 28.0 + 22·log10(d₃D) + 20·log10(f_GHz), with a 10 m close-in
// clamp so co-located UEs do not see unbounded power.
func pathLossDB(dist units.Meters, freqMHz float64) units.DB {
	distM := dist.Float()
	if distM < 10 {
		distM = 10
	}
	fGHz := freqMHz / 1000
	if fGHz <= 0 {
		fGHz = 1
	}
	return units.DB(28.0 + 22*math.Log10(distM) + 20*math.Log10(fGHz))
}

// hash64 mixes integers into a pseudorandom 64-bit value
// (SplitMix64-style finalizer); it is the deterministic noise source
// behind the shadowing lattice.
func hash64(vals ...int64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// gauss01 maps a hash to an approximately standard normal value by
// summing 4 uniforms (Irwin–Hall; variance 4/12 → scale √3).
func gauss01(h uint64) float64 {
	var sum float64
	for i := 0; i < 4; i++ {
		sum += float64((h>>(i*16))&0xffff) / 65535.0
	}
	return (sum - 2) * math.Sqrt(3)
}

// shadowDB returns the spatially correlated shadowing for one cell at
// one point, by bilinear interpolation of a hashed lattice with the
// field's correlation length. The lattice is keyed on the cell identity
// so different cells fade independently (even co-channel ones — the
// crossing RSRP surfaces of cells 273 and 371 on 387410 in Fig. 20 come
// from exactly this independence).
func (f *Field) shadowDB(c *cell.Cell, p geo.Point) units.DB {
	l := f.ShadowCorrLenM.Float()
	gx, gy := math.Floor(p.X/l), math.Floor(p.Y/l)
	fx, fy := p.X/l-gx, p.Y/l-gy
	key := int64(c.PCI)<<32 ^ int64(c.Channel)
	n := func(ix, iy float64) float64 {
		return gauss01(hash64(f.seed, key, int64(ix), int64(iy)))
	}
	v00 := n(gx, gy)
	v10 := n(gx+1, gy)
	v01 := n(gx, gy+1)
	v11 := n(gx+1, gy+1)
	// Smoothstep weights avoid lattice-aligned creases.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	v := v00*(1-sx)*(1-sy) + v10*sx*(1-sy) + v01*(1-sx)*sy + v11*sx*sy
	return f.ShadowSigmaDB.Scale(v)
}

// rsrqFromRSRP derives RSRQ from RSRP with the empirical shape seen in
// the paper's instances: ≈ −10.5 dB under good coverage, degrading
// roughly half a dB per dB of RSRP below −82 dBm (e.g. the −108.5 dBm
// S1E2 bad apple reports −25.5 dB in Fig. 28), clamped to [−30, −5].
func rsrqFromRSRP(rsrp units.DBm, noise units.DB) units.DB {
	q := -10.5 - noise.Float()
	if rsrp < -82 {
		q -= 0.55 * (-82 - rsrp.Float())
	}
	return units.DB(max(-30, min(-5, q)))
}

// Median returns the deterministic local median measurement of c at p:
// transmit power minus path loss minus shadowing, with the derived RSRQ.
func (f *Field) Median(c *cell.Cell, p geo.Point) meas.Measurement {
	loss := pathLossDB(units.Meters(c.Pos.Dist(p)), c.FreqMHz())
	rsrp := c.TxPowerDBm.Add(-loss).Add(f.shadowDB(c, p))
	return meas.Measurement{RSRPDBm: rsrp, RSRQDB: rsrqFromRSRP(rsrp, c.NoiseDB)}
}

// Sample returns one faded observation of c at p. The rng carries the
// run's temporal randomness; spatial structure stays deterministic.
func (f *Field) Sample(c *cell.Cell, p geo.Point, rng *rand.Rand) meas.Measurement {
	return f.Fade(c, f.Median(c, p), rng)
}

// Fade returns one faded observation of c around m, its local median
// as returned by Median: fast fading on the RSRP, then the RSRQ
// re-derived from the faded RSRP plus its own jitter. It draws exactly
// two normals from rng, so a caller that keeps a median across samples
// consumes the same stream and gets the same values as Sample.
//
//loopvet:hot
func (f *Field) Fade(c *cell.Cell, m meas.Measurement, rng *rand.Rand) meas.Measurement {
	m.RSRPDBm = m.RSRPDBm.Add(f.FadeSigmaDB.Scale(rng.NormFloat64()))
	m.RSRQDB = rsrqFromRSRP(m.RSRPDBm, c.NoiseDB).Add(units.DB(rng.NormFloat64() * 0.8))
	m.RSRQDB = units.DB(max(-30, min(-5, m.RSRQDB.Float())))
	return m
}
