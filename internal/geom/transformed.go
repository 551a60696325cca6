package geom

import (
	vm "nowrender/internal/vecmath"
)

// Transformed wraps a shape with an affine transform, intersecting by
// mapping the ray into object space and the hit back out. This is how the
// animation system moves objects between frames without mutating
// geometry: each frame binds a fresh Transformed around the same shape.
type Transformed struct {
	Shape Shape
	Xf    vm.Transform
	// bounds is the world-space box, computed once at construction.
	bounds vm.AABB
}

// NewTransformed wraps shape with transform xf (object -> world).
func NewTransformed(shape Shape, xf vm.Transform) *Transformed {
	return &Transformed{Shape: shape, Xf: xf, bounds: vm.TransformAABB(xf.Fwd, shape.Bounds())}
}

// local maps r to object space. t values are preserved because the
// direction is transformed without renormalisation.
func (tw *Transformed) local(r vm.Ray) vm.Ray {
	return vm.Ray{
		Origin: tw.Xf.Inv.MulPoint(r.Origin),
		Dir:    tw.Xf.Inv.MulDir(r.Dir),
		Kind:   r.Kind,
		Depth:  r.Depth,
	}
}

// IntersectT implements Shape.
func (tw *Transformed) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	return tw.Shape.IntersectT(tw.local(r), tMin, tMax)
}

// HitAt implements Shape: the wrapped shape's hit, mapped back out.
func (tw *Transformed) HitAt(r vm.Ray, t float64, part int32) Hit {
	h := tw.Shape.HitAt(tw.local(r), t, part)
	h.Point = tw.Xf.Fwd.MulPoint(h.Point)
	h.Normal = tw.Xf.Inv.MulNormal(h.Normal).Norm()
	return h
}

// Bounds implements Shape.
func (tw *Transformed) Bounds() vm.AABB { return tw.bounds }
