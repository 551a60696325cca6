package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Cone is a capped conical frustum between two end points with
// independent radii, POV-Ray's `cone { <base>, rBase, <cap>, rCap }`.
// Either radius may be zero (a true cone apex).
type Cone struct {
	Base, Cap             vm.Vec3
	BaseRadius, CapRadius float64
	// Open omits the end discs when true.
	Open bool

	axis   vm.Vec3
	height float64
}

// NewCone returns a capped conical frustum. Base and Cap must be
// distinct and radii non-negative.
func NewCone(base vm.Vec3, baseRadius float64, cap vm.Vec3, capRadius float64) *Cone {
	c := &Cone{Base: base, Cap: cap, BaseRadius: baseRadius, CapRadius: capRadius}
	d := cap.Sub(base)
	c.height = d.Len()
	c.axis = d.Scale(1 / c.height)
	return c
}

// NewOpenCone returns a frustum without end discs.
func NewOpenCone(base vm.Vec3, baseRadius float64, cap vm.Vec3, capRadius float64) *Cone {
	c := NewCone(base, baseRadius, cap, capRadius)
	c.Open = true
	return c
}

// IntersectT implements Shape. The lateral surface satisfies
// |p_perp| = r(h) where h is the axial height; substituting the ray
// gives a quadratic in t. Ties resolve as on the Cylinder.
func (c *Cone) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	best, part := tMax, int32(-1)

	// Decompose into axial and perpendicular components relative to
	// Base.
	oc := r.Origin.Sub(c.Base)
	ocA := oc.Dot(c.axis)
	dA := r.Dir.Dot(c.axis)
	ocP := oc.Sub(c.axis.Scale(ocA))
	dP := r.Dir.Sub(c.axis.Scale(dA))

	// r(h) = r0 + k*h with k = (r1-r0)/height; surface:
	// |ocP + t dP|^2 = (r0 + k (ocA + t dA))^2.
	k := c.slope()
	r0 := c.BaseRadius

	a := dP.Dot(dP) - k*k*dA*dA
	b := 2 * (ocP.Dot(dP) - k*dA*(r0+k*ocA))
	cc := ocP.Dot(ocP) - (r0+k*ocA)*(r0+k*ocA)
	t0, t1, n := vm.SolveQuadratic(a, b, cc)
	for i, t := range [2]float64{t0, t1} {
		if i >= n || t <= tMin || t >= best {
			continue
		}
		h := ocA + t*dA
		if h < 0 || h > c.height {
			continue
		}
		if r.At(t).Sub(c.Base.Add(c.axis.Scale(h))).Len() < vm.Eps {
			continue // apex degenerate point
		}
		best, part = t, partLateral
	}
	if !c.Open {
		if c.BaseRadius > 0 {
			if t, ok := discT(r, tMin, best, c.Base, c.axis.Neg(), c.BaseRadius); ok {
				best, part = t, partBase
			}
		}
		if c.CapRadius > 0 {
			if t, ok := discT(r, tMin, best, c.Cap, c.axis, c.CapRadius); ok {
				best, part = t, partCap
			}
		}
	}
	return best, part, part >= 0
}

// slope is dr/dh of the lateral surface.
func (c *Cone) slope() float64 { return (c.CapRadius - c.BaseRadius) / c.height }

// HitAt implements Shape.
func (c *Cone) HitAt(r vm.Ray, t float64, part int32) Hit {
	switch part {
	case partBase:
		return discHit(r, t, c.axis.Neg())
	case partCap:
		return discHit(r, t, c.axis)
	}
	h := r.Origin.Sub(c.Base).Dot(c.axis) + t*r.Dir.Dot(c.axis)
	p := r.At(t)
	radial := p.Sub(c.Base.Add(c.axis.Scale(h)))
	// Outward normal tilts along the axis by the slope.
	outward := radial.Scale(1 / radial.Len()).Sub(c.axis.Scale(c.slope())).Norm()
	normal, inside := faceForward(outward, r.Dir)
	return Hit{T: t, Point: p, Normal: normal, Inside: inside}
}

// Bounds implements Shape.
func (c *Cone) Bounds() vm.AABB {
	rMax := math.Max(c.BaseRadius, c.CapRadius)
	b := vm.EmptyAABB().Extend(c.Base).Extend(c.Cap)
	pad := vm.V(
		rMax*math.Sqrt(math.Max(0, 1-c.axis.X*c.axis.X)),
		rMax*math.Sqrt(math.Max(0, 1-c.axis.Y*c.axis.Y)),
		rMax*math.Sqrt(math.Max(0, 1-c.axis.Z*c.axis.Z)),
	)
	return vm.AABB{Min: b.Min.Sub(pad), Max: b.Max.Add(pad)}
}

// OverlapsBox implements BoxOverlapper conservatively: distance from the
// box centre to the axis segment within max radius + half diagonal.
func (c *Cone) OverlapsBox(b vm.AABB) bool {
	if !c.Bounds().Overlaps(b) {
		return false
	}
	center := b.Center()
	halfDiag := b.Size().Len() / 2
	d := distPointSegment(center, c.Base, c.Cap)
	return d <= math.Max(c.BaseRadius, c.CapRadius)+halfDiag
}
