package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Torus is POV-Ray's `torus { R, r }`: a torus centred at the origin
// with its axis along +Y, major radius Major (ring radius) and minor
// radius Minor (tube radius). Position and orient it with a Transformed
// wrapper (the SDL's translate/rotate/scale modifiers do exactly that).
type Torus struct {
	Major, Minor float64
}

// NewTorus returns a torus. Both radii must be positive and Minor <=
// Major for a ring torus.
func NewTorus(major, minor float64) *Torus {
	return &Torus{Major: major, Minor: minor}
}

// IntersectT implements Shape. The torus surface satisfies
// (|p|² + R² − r²)² = 4R²(px² + pz²); substituting the ray gives a
// quartic in t.
func (to *Torus) IntersectT(ray vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	// Quick reject against the bounding box.
	if _, hit := to.Bounds().IntersectRay(ray, tMin, tMax); !hit {
		return 0, 0, false
	}
	o, d := ray.Origin, ray.Dir
	R2 := to.Major * to.Major
	k := d.Dot(d)
	m := o.Dot(d)
	n := o.Dot(o) + R2 - to.Minor*to.Minor

	// (k t² + 2m t + n)² − 4R²((ox+t dx)² + (oz+t dz)²) = 0.
	pxz := 4 * R2 * (d.X*d.X + d.Z*d.Z)
	qxz := 8 * R2 * (o.X*d.X + o.Z*d.Z)
	rxz := 4 * R2 * (o.X*o.X + o.Z*o.Z)

	c4 := k * k
	c3 := 4 * k * m
	c2 := 4*m*m + 2*k*n - pxz
	c1 := 4*m*n - qxz
	c0 := n*n - rxz
	if c4 < vm.Eps {
		return 0, 0, false
	}
	roots := vm.SolveQuartic(c3/c4, c2/c4, c1/c4, c0/c4)
	for _, t := range roots {
		if t <= tMin || t >= tMax {
			continue
		}
		if p := ray.At(t); math.Hypot(p.X, p.Z) < vm.Eps {
			continue // on the axis: degenerate
		}
		return t, 0, true
	}
	return 0, 0, false
}

// HitAt implements Shape.
func (to *Torus) HitAt(ray vm.Ray, t float64, _ int32) Hit {
	p := ray.At(t)
	// Normal: from the nearest point on the ring circle to p.
	ringLen := math.Hypot(p.X, p.Z)
	ring := vm.V(p.X/ringLen*to.Major, 0, p.Z/ringLen*to.Major)
	outward := p.Sub(ring).Norm()
	normal, inside := faceForward(outward, ray.Dir)
	return Hit{T: t, Point: p, Normal: normal, Inside: inside}
}

// Bounds implements Shape.
func (to *Torus) Bounds() vm.AABB {
	e := to.Major + to.Minor
	return vm.NewAABB(vm.V(-e, -to.Minor, -e), vm.V(e, to.Minor, e))
}

// OverlapsBox implements BoxOverlapper conservatively: the box centre
// must be within Minor + half the box diagonal of the ring circle.
func (to *Torus) OverlapsBox(b vm.AABB) bool {
	if !to.Bounds().Overlaps(b) {
		return false
	}
	c := b.Center()
	ringLen := math.Hypot(c.X, c.Z)
	var ring vm.Vec3
	if ringLen < vm.Eps {
		ring = vm.V(to.Major, 0, 0)
	} else {
		ring = vm.V(c.X/ringLen*to.Major, 0, c.Z/ringLen*to.Major)
	}
	return c.Dist(ring) <= to.Minor+b.Size().Len()/2
}
