package vecmath

import (
	"math"
	"testing"
)

// intersectRayReference is AABB.IntersectRay as it stood before the
// three slabs were written out: one loop over Vec3.Axis. It is the
// oracle the straight-line clip is fuzzed against, bit for bit.
func (b AABB) intersectRayReference(r Ray, tMin, tMax float64) (Interval, bool) {
	t0, t1 := tMin, tMax
	for axis := 0; axis < 3; axis++ {
		o := r.Origin.Axis(axis)
		d := r.Dir.Axis(axis)
		lo := b.Min.Axis(axis)
		hi := b.Max.Axis(axis)
		if math.Abs(d) < Eps {
			if o < lo || o > hi {
				return Interval{}, false
			}
			continue
		}
		inv := 1 / d
		tNear := (lo - o) * inv
		tFar := (hi - o) * inv
		if tNear > tFar {
			tNear, tFar = tFar, tNear
		}
		if tNear > t0 {
			t0 = tNear
		}
		if tFar < t1 {
			t1 = tFar
		}
		if t0 > t1 {
			return Interval{}, false
		}
	}
	return Interval{Min: t0, Max: t1}, true
}

// checkSlab fails t unless IntersectRay and the reference return the
// same hit flag and the same interval bits.
func checkSlab(t *testing.T, b AABB, r Ray, tMin, tMax float64) {
	t.Helper()
	got, gotHit := b.IntersectRay(r, tMin, tMax)
	want, wantHit := b.intersectRayReference(r, tMin, tMax)
	if gotHit != wantHit ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(want.Max) {
		t.Fatalf("box %v ray %v over [%v, %v]: got %v %v, reference %v %v",
			b, r, tMin, tMax, got, gotHit, want, wantHit)
	}
}

// slabCase builds a box, a ray and a parameter range from raw fuzz
// values; each bit of tweak forces one of the inputs the slab test
// treats specially, so the fuzzer reaches them without guessing exact
// floats.
func slabCase(tweak uint16, v [14]float64) (AABB, Ray, float64, float64) {
	b := AABB{Min: V(v[0], v[1], v[2]), Max: V(v[3], v[4], v[5])}
	r := Ray{Origin: V(v[6], v[7], v[8]), Dir: V(v[9], v[10], v[11])}
	tMin, tMax := v[12], v[13]
	if tweak&1 != 0 { // origin on a face
		r.Origin.X = b.Min.X
	}
	if tweak&2 != 0 {
		r.Origin.Y = b.Max.Y
	}
	if tweak&4 != 0 { // within Eps of parallel, on either side of it
		r.Dir.X *= 1e-10
	}
	if tweak&8 != 0 {
		r.Dir.Y = Eps
	}
	if tweak&16 != 0 {
		r.Dir.Z = math.Copysign(0, -1)
	}
	if tweak&32 != 0 {
		r.Dir.Z = 0
	}
	if tweak&64 != 0 { // infinite ends of the range
		tMax = math.Inf(1)
	}
	if tweak&128 != 0 {
		tMin = math.Inf(-1)
	}
	if tweak&256 != 0 {
		tMin = 0
	}
	if tweak&512 != 0 { // NaN components
		r.Origin.Z = math.NaN()
	}
	if tweak&1024 != 0 {
		r.Dir.X = math.NaN()
	}
	if tweak&2048 != 0 {
		b.Max.Y = math.NaN()
	}
	if tweak&4096 != 0 { // an empty box
		b.Min, b.Max = b.Max, b.Min
	}
	if tweak&8192 != 0 { // a negative zero origin
		r.Origin.X = math.Copysign(0, -1)
	}
	if tweak&16384 != 0 { // a NaN range
		tMin = math.NaN()
	}
	return b, r, tMin, tMax
}

// FuzzSlabMatchesReference: the written-out slab clip returns exactly
// the reference loop's hit flag and interval bits for any box, ray and
// range, NaN and infinite values included.
func FuzzSlabMatchesReference(f *testing.F) {
	unit := [14]float64{-1, -1, -1, 1, 1, 1, 0.3, -0.2, 5, 0.01, 0.02, -1, 0, math.Inf(1)}
	for _, tweak := range []uint16{0, 1, 2, 3, 4, 8, 16, 32, 64, 128, 192, 256, 512, 1024, 2048, 4096, 8192, 16384, 1 | 4 | 64, 2 | 8 | 16 | 128} {
		f.Add(tweak, unit[0], unit[1], unit[2], unit[3], unit[4], unit[5], unit[6], unit[7],
			unit[8], unit[9], unit[10], unit[11], unit[12], unit[13])
	}
	// A diagonal ray that grazes an edge, and a ray starting inside.
	f.Add(uint16(0), 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, -1.0, 1.0, 3.0, 1.0, 1.0, -1.0, 0.0, 10.0)
	f.Add(uint16(64), -3.5, 0.0, -2.0, 3.5, 4.0, 2.0, 0.1, 1.0, 0.0, -1e-9, 2e-9, 0.7, 1e-4, 0.0)
	f.Fuzz(func(t *testing.T, tweak uint16, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13 float64) {
		b, r, tMin, tMax := slabCase(tweak, [14]float64{a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13})
		checkSlab(t, b, r, tMin, tMax)
	})
}

// TestSlabMatchesReferenceSweep runs the fuzz property over random boxes
// and rays under every tweak, so tier-1 covers more than the seeds.
func TestSlabMatchesReferenceSweep(t *testing.T) {
	rng := NewRNG(91)
	for i := 0; i < 50000; i++ {
		var v [14]float64
		for k := range v {
			v[k] = rng.InRange(-4, 4)
		}
		b, r, tMin, tMax := slabCase(uint16(rng.Intn(1<<15)), v)
		checkSlab(t, b, r, tMin, tMax)
	}
}

// checkSpecPow fails t unless SpecPow(x, y) has math.Pow's bits.
func checkSpecPow(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := SpecPow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SpecPow(%v, %v) = %v (%#x), math.Pow = %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzSpecPowMatchesPow: SpecPow has math.Pow's bits for the raw inputs
// and for x folded into [0, 2) (subnormals included) against y folded
// into (−301, 301), whole and fractional.
func FuzzSpecPowMatchesPow(f *testing.F) {
	for _, c := range [][2]float64{
		{0.5, 40}, {0.93, 5}, {0.999999, 200}, {1.9999, 256}, {1.5, 257}, {1, 300},
		{0, 5}, {math.Copysign(0, -1), 5}, {5e-324, 2}, {2.2250738585072014e-308, 3},
		{0.03, 200}, {math.Nextafter(1, 0), 255}, {0.7, 20.5}, {0.25, 2},
		{math.NaN(), 2}, {math.Inf(1), 4}, {-0.5, 3},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		fx := math.Mod(math.Abs(x), 2)
		fy := math.Mod(y, 301)
		for _, xx := range []float64{x, fx} {
			for _, yy := range []float64{y, fy, math.Trunc(fy)} {
				checkSpecPow(t, xx, yy)
			}
		}
	})
}

// TestSpecPowMatchesPowSweep checks every whole exponent SpecPow takes
// and its neighbours over x spread log-uniformly across [2^-1100, 2),
// where its normal-range bound cuts in for every n, and over x near 1.
func TestSpecPowMatchesPowSweep(t *testing.T) {
	rng := NewRNG(49)
	for n := 1; n <= 257; n++ {
		for i := 0; i < 1000; i++ {
			checkSpecPow(t, math.Exp2(rng.InRange(-1100, 1)), float64(n))
			checkSpecPow(t, 1-rng.Float64()/64, float64(n))
		}
	}
}
