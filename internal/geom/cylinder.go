package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Cylinder is a capped cylinder between two end points, POV-Ray's
// `cylinder { <base>, <cap>, radius }`. The Newton scene uses sixteen of
// these for the frame and strings.
type Cylinder struct {
	Base, Cap vm.Vec3
	Radius    float64
	// Open omits the end caps when true (POV's `open` keyword).
	Open bool

	axis   vm.Vec3 // unit vector Base -> Cap
	height float64
}

// NewCylinder returns a capped cylinder. Base and Cap must be distinct.
func NewCylinder(base, cap vm.Vec3, radius float64) *Cylinder {
	c := &Cylinder{Base: base, Cap: cap, Radius: radius}
	d := cap.Sub(base)
	c.height = d.Len()
	c.axis = d.Scale(1 / c.height)
	return c
}

// NewOpenCylinder returns a cylinder without end caps.
func NewOpenCylinder(base, cap vm.Vec3, radius float64) *Cylinder {
	c := NewCylinder(base, cap, radius)
	c.Open = true
	return c
}

// IntersectT implements Shape. Each candidate must beat the running
// best strictly, so on a tie the lateral surface wins over the base and
// the base over the cap.
func (c *Cylinder) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	best, part := tMax, int32(-1)

	// Lateral surface: solve |(o + t*d) - base - ((o + t*d - base)·a)a| = R.
	oc := r.Origin.Sub(c.Base)
	dA, ocA := r.Dir.Dot(c.axis), oc.Dot(c.axis)
	dPerp := r.Dir.Sub(c.axis.Scale(dA))
	oPerp := oc.Sub(c.axis.Scale(ocA))
	a := dPerp.Dot(dPerp)
	b := 2 * dPerp.Dot(oPerp)
	cc := oPerp.Dot(oPerp) - c.Radius*c.Radius
	t0, t1, n := vm.SolveQuadratic(a, b, cc)
	for i, t := range [2]float64{t0, t1} {
		if i >= n || t <= tMin || t >= best {
			continue
		}
		if h := r.At(t).Sub(c.Base).Dot(c.axis); h < 0 || h > c.height {
			continue
		}
		best, part = t, partLateral
	}
	// End caps, the disc test (discT) written out for both at once: the
	// base's normal is -axis, so its denominator is -dA and its numerator
	// (-axis)·(Base-Origin) is axis·oc — the same floats, not recomputed.
	if !c.Open && math.Abs(dA) >= vm.Eps {
		r2 := c.Radius * c.Radius
		if t := ocA / -dA; t > tMin && t < best && r.At(t).Sub(c.Base).Len2() <= r2 {
			best, part = t, partBase
		}
		if t := c.axis.Dot(c.Cap.Sub(r.Origin)) / dA; t > tMin && t < best && r.At(t).Sub(c.Cap).Len2() <= r2 {
			best, part = t, partCap
		}
	}
	return best, part, part >= 0
}

// HitAt implements Shape.
func (c *Cylinder) HitAt(r vm.Ray, t float64, part int32) Hit {
	switch part {
	case partBase:
		return discHit(r, t, c.axis.Neg())
	case partCap:
		return discHit(r, t, c.axis)
	}
	p := r.At(t)
	axisPt := c.Base.Add(c.axis.Scale(p.Sub(c.Base).Dot(c.axis)))
	outward := p.Sub(axisPt).Scale(1 / c.Radius)
	normal, inside := faceForward(outward, r.Dir)
	return Hit{T: t, Point: p, Normal: normal, Inside: inside}
}

// Bounds implements Shape.
func (c *Cylinder) Bounds() vm.AABB {
	// Tight per-axis extent: for each axis, the lateral surface extends
	// R*sqrt(1 - a_i^2) beyond the segment endpoints.
	b := vm.EmptyAABB()
	for _, p := range [2]vm.Vec3{c.Base, c.Cap} {
		b = b.Extend(p)
	}
	pad := vm.V(
		c.Radius*math.Sqrt(math.Max(0, 1-c.axis.X*c.axis.X)),
		c.Radius*math.Sqrt(math.Max(0, 1-c.axis.Y*c.axis.Y)),
		c.Radius*math.Sqrt(math.Max(0, 1-c.axis.Z*c.axis.Z)),
	)
	return vm.AABB{Min: b.Min.Sub(pad), Max: b.Max.Add(pad)}
}
