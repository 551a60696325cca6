package geom

import (
	vm "nowrender/internal/vecmath"
)

// Sphere is a sphere with a centre and radius.
type Sphere struct {
	Center vm.Vec3
	Radius float64
}

// NewSphere returns a sphere. Radius must be positive.
func NewSphere(center vm.Vec3, radius float64) *Sphere {
	return &Sphere{Center: center, Radius: radius}
}

// IntersectT implements Shape.
func (s *Sphere) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	oc := r.Origin.Sub(s.Center)
	a := r.Dir.Dot(r.Dir)
	b := 2 * oc.Dot(r.Dir)
	c := oc.Dot(oc) - s.Radius*s.Radius
	t0, t1, n := vm.SolveQuadratic(a, b, c)
	if n == 0 {
		return 0, 0, false
	}
	t := t0
	if t <= tMin || t >= tMax {
		t = t1
		if n < 2 || t <= tMin || t >= tMax {
			return 0, 0, false
		}
	}
	return t, 0, true
}

// HitAt implements Shape.
func (s *Sphere) HitAt(r vm.Ray, t float64, _ int32) Hit {
	p := r.At(t)
	outward := p.Sub(s.Center).Scale(1 / s.Radius)
	normal, inside := faceForward(outward, r.Dir)
	return Hit{T: t, Point: p, Normal: normal, Inside: inside}
}

// Bounds implements Shape.
func (s *Sphere) Bounds() vm.AABB {
	r := vm.Splat(s.Radius)
	return vm.AABB{Min: s.Center.Sub(r), Max: s.Center.Add(r)}
}
