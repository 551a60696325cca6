package vecmath

import "math"

// AABB is an axis-aligned bounding box. The zero value is the canonical
// empty box (Min > Max in every axis after calling EmptyAABB).
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box containing no points, suitable as the identity
// for Union.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Splat(inf), Max: Splat(-inf)}
}

// NewAABB returns the box spanning the two corner points in any order.
func NewAABB(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{Min: b.Min.Min(c.Min), Max: b.Max.Max(c.Max)}
}

// Extend returns the smallest box containing b and point p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Pad returns the box grown by d on every side.
func (b AABB) Pad(d float64) AABB {
	return AABB{Min: b.Min.Sub(Splat(d)), Max: b.Max.Add(Splat(d))}
}

// Size returns the box extents per axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the box centre.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Contains reports whether point p lies inside or on the box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Overlaps reports whether the two boxes intersect (sharing a face
// counts).
func (b AABB) Overlaps(c AABB) bool {
	return b.Min.X <= c.Max.X && b.Max.X >= c.Min.X &&
		b.Min.Y <= c.Max.Y && b.Max.Y >= c.Min.Y &&
		b.Min.Z <= c.Max.Z && b.Max.Z >= c.Min.Z
}

// IntersectRay clips ray r against the box using the slab method and
// returns the parameter interval of overlap with [tMin, tMax]. The second
// return value is false when the ray misses the box entirely. It is the
// first step of every grid walk, so it clips the X, Y and Z slabs in
// that order with the inlined clipSlab and makes no call per axis.
func (b AABB) IntersectRay(r Ray, tMin, tMax float64) (Interval, bool) {
	t0, t1, ok := clipSlab(r.Origin.X, r.Dir.X, b.Min.X, b.Max.X, tMin, tMax)
	if !ok {
		return Interval{}, false
	}
	if t0, t1, ok = clipSlab(r.Origin.Y, r.Dir.Y, b.Min.Y, b.Max.Y, t0, t1); !ok {
		return Interval{}, false
	}
	if t0, t1, ok = clipSlab(r.Origin.Z, r.Dir.Z, b.Min.Z, b.Max.Z, t0, t1); !ok {
		return Interval{}, false
	}
	return Interval{Min: t0, Max: t1}, true
}

// clipSlab narrows [t0, t1] to where a ray with origin component o and
// direction component d lies in the slab [lo, hi] of one axis; false
// when the interval empties. A ray parallel to the slab (|d| < Eps)
// keeps [t0, t1] unchanged, even an empty one, when its origin lies
// inside the slab and misses otherwise. The parallel test is |d| < Eps
// spelled as two comparisons, which keeps the helper within the
// inliner's budget.
func clipSlab(o, d, lo, hi, t0, t1 float64) (float64, float64, bool) {
	if -Eps < d && d < Eps {
		return t0, t1, !(o < lo || o > hi)
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
	return t0, t1, !(t0 > t1)
}

// TransformAABB returns the axis-aligned box enclosing box b mapped
// through transform m, by transforming all eight corners.
func TransformAABB(m Mat4, b AABB) AABB {
	if b.IsEmpty() {
		return b
	}
	out := EmptyAABB()
	for i := 0; i < 8; i++ {
		c := Vec3{
			pick(i&1 != 0, b.Max.X, b.Min.X),
			pick(i&2 != 0, b.Max.Y, b.Min.Y),
			pick(i&4 != 0, b.Max.Z, b.Min.Z),
		}
		out = out.Extend(m.MulPoint(c))
	}
	return out
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}
