package vecmath

import "math"

// SolveQuadratic returns the real roots of a*t² + b*t + c = 0 in ascending
// order. n is the number of roots (0, 1 or 2). The numerically stable
// "citardauq" formulation avoids catastrophic cancellation when b² >> 4ac,
// which matters for grazing sphere/cylinder hits.
func SolveQuadratic(a, b, c float64) (t0, t1 float64, n int) {
	if math.Abs(a) < Eps {
		if math.Abs(b) < Eps {
			return 0, 0, 0
		}
		return -c / b, 0, 1
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, 0
	}
	if disc == 0 {
		return -b / (2 * a), 0, 1
	}
	sq := math.Sqrt(disc)
	var q float64
	if b >= 0 {
		q = -0.5 * (b + sq)
	} else {
		q = -0.5 * (b - sq)
	}
	t0, t1 = q/a, c/q
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	return t0, t1, 2
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SpecPow returns math.Pow(x, y) bit for bit, faster for the Phong
// highlight's case: every built-in material's shininess is a whole
// number. For a whole y = n in [2, 256] and an x = m·2^e (m in [0.5, 1))
// with n·(1−e) < 1000 and n·e < 1000, it runs the square-and-multiply
// that Pow runs on Frexp's mantissa directly on x, in the same order.
// Pow's exponent bookkeeping only scales those same products by powers
// of two, and such scalings are exact while every value stays normal,
// which the bounds on n and e guarantee (x^n lies within 2^±1000). Every
// other input, negative, zero, subnormal, infinite and NaN ones
// included, goes to math.Pow.
func SpecPow(x, y float64) float64 {
	if y >= 2 && y <= 256 {
		n := int(y)
		// The sign bit lands above the exponent, so a negative x has
		// e > 1000, as have Inf and NaN; zero and subnormals have e = −1022.
		e := int(math.Float64bits(x)>>52) - 1022
		if float64(n) == y && n*(1-e) < 1000 && n*e < 1000 {
			p := 1.0
			for {
				if n&1 == 1 {
					p *= x
				}
				if n >>= 1; n == 0 {
					return p
				}
				x *= x
			}
		}
	}
	return math.Pow(x, y)
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*), used wherever the renderer needs reproducible jitter
// (supersampling, workload generators). It deliberately avoids math/rand
// global state so parallel workers never contend.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant, since xorshift requires non-zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vecmath: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// InRange returns a uniform value in [lo,hi).
func (r *RNG) InRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
