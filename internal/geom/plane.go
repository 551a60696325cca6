package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Plane is the infinite plane { p : p·Normal = Offset }, POV-Ray style.
type Plane struct {
	Normal vm.Vec3 // unit normal
	Offset float64 // signed distance of plane from origin along Normal
}

// NewPlane returns the plane with the given (not necessarily unit) normal
// and offset. The normal is normalised; offset is the distance from the
// origin along the unit normal, matching POV-Ray's plane syntax.
func NewPlane(normal vm.Vec3, offset float64) *Plane {
	return &Plane{Normal: normal.Norm(), Offset: offset}
}

// IntersectT implements Shape.
func (p *Plane) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	denom := p.Normal.Dot(r.Dir)
	if math.Abs(denom) < vm.Eps {
		return 0, 0, false
	}
	t := (p.Offset - p.Normal.Dot(r.Origin)) / denom
	if t <= tMin || t >= tMax {
		return 0, 0, false
	}
	return t, 0, true
}

// HitAt implements Shape.
func (p *Plane) HitAt(r vm.Ray, t float64, _ int32) Hit {
	pt := r.At(t)
	normal, inside := faceForward(p.Normal, r.Dir)
	return Hit{T: t, Point: pt, Normal: normal, Inside: inside}
}

// Bounds implements Shape. Planes are unbounded; return a huge slab
// around the plane so grid clipping still works.
func (p *Plane) Bounds() vm.AABB {
	// A thin, huge box oriented to the dominant axis would miss slanted
	// planes, so just return the full huge cube.
	return vm.NewAABB(vm.Splat(-HugeExtent), vm.Splat(HugeExtent))
}
