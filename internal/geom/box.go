package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Box is an axis-aligned solid box, POV-Ray's `box { <min>, <max> }`.
type Box struct {
	Min, Max vm.Vec3
}

// NewBox returns the box spanning the two corners in any order.
func NewBox(a, b vm.Vec3) *Box {
	bb := vm.NewAABB(a, b)
	return &Box{Min: bb.Min, Max: bb.Max}
}

// IntersectT implements Shape. part is always 0: HitAt recovers the face
// from the hit point (normalAt), as the shading always has.
func (b *Box) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	iv, hit := (vm.AABB{Min: b.Min, Max: b.Max}).IntersectRay(r, tMin, tMax)
	if !hit {
		return 0, 0, false
	}
	t := iv.Min
	if t <= tMin {
		// Origin inside the box: exit point is the hit.
		t = iv.Max
		if t <= tMin || t >= tMax {
			return 0, 0, false
		}
	}
	if t >= tMax {
		return 0, 0, false
	}
	return t, 0, true
}

// HitAt implements Shape.
func (b *Box) HitAt(r vm.Ray, t float64, _ int32) Hit {
	p := r.At(t)
	// For an exit hit the outward normal points along the ray, so
	// faceForward both flips it and flags the hit as inside.
	n, inside := faceForward(b.normalAt(p), r.Dir)
	return Hit{T: t, Point: p, Normal: n, Inside: inside}
}

// normalAt returns the outward normal of the face nearest to p.
func (b *Box) normalAt(p vm.Vec3) vm.Vec3 {
	bestAxis, bestSign, bestDist := 0, 1.0, math.Inf(1)
	for axis := 0; axis < 3; axis++ {
		if d := math.Abs(p.Axis(axis) - b.Min.Axis(axis)); d < bestDist {
			bestDist, bestAxis, bestSign = d, axis, -1
		}
		if d := math.Abs(p.Axis(axis) - b.Max.Axis(axis)); d < bestDist {
			bestDist, bestAxis, bestSign = d, axis, 1
		}
	}
	return vm.Vec3{}.SetAxis(bestAxis, bestSign)
}

// Bounds implements Shape.
func (b *Box) Bounds() vm.AABB { return vm.AABB{Min: b.Min, Max: b.Max} }

// Disc is a flat circular disc, used for cylinder caps and standalone.
type Disc struct {
	Center vm.Vec3
	Normal vm.Vec3 // unit
	Radius float64
}

// NewDisc returns a disc; the normal is normalised.
func NewDisc(center, normal vm.Vec3, radius float64) *Disc {
	return &Disc{Center: center, Normal: normal.Norm(), Radius: radius}
}

// IntersectT implements Shape.
func (d *Disc) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	t, ok := discT(r, tMin, tMax, d.Center, d.Normal, d.Radius)
	return t, 0, ok
}

// HitAt implements Shape.
func (d *Disc) HitAt(r vm.Ray, t float64, _ int32) Hit {
	return discHit(r, t, d.Normal)
}

// discT is the plane-then-radius test of the disc (center, normal,
// radius) — a standalone Disc or the end cap of a cylinder or cone.
func discT(r vm.Ray, tMin, tMax float64, center, normal vm.Vec3, radius float64) (float64, bool) {
	denom := normal.Dot(r.Dir)
	if math.Abs(denom) < vm.Eps {
		return 0, false
	}
	t := normal.Dot(center.Sub(r.Origin)) / denom
	if t <= tMin || t >= tMax {
		return 0, false
	}
	if r.At(t).Sub(center).Len2() > radius*radius {
		return 0, false
	}
	return t, true
}

// discHit completes the hit discT found on a disc with the given normal.
func discHit(r vm.Ray, t float64, normal vm.Vec3) Hit {
	n, inside := faceForward(normal, r.Dir)
	return Hit{T: t, Point: r.At(t), Normal: n, Inside: inside}
}

// Bounds implements Shape.
func (d *Disc) Bounds() vm.AABB {
	r := vm.Splat(d.Radius)
	return vm.AABB{Min: d.Center.Sub(r), Max: d.Center.Add(r)}.Pad(vm.Eps)
}
