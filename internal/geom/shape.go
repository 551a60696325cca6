// Package geom implements the geometric primitives the renderer supports
// and their ray-intersection routines. The set matches what the paper's
// test scenes need (POV-Ray subset): planes, spheres, boxes, capped
// cylinders, discs, triangles and triangle meshes, plus an affine
// transform wrapper.
//
// All primitives implement Shape. Intersection is two-phase: IntersectT
// decides whether and where a ray meets the surface (the nearest
// parameter t in (tMin, tMax)), HitAt completes the point and normal for
// the one candidate that wins the ray. Spatial
// acceleration across objects lives in internal/grid; inside one object
// the routines are closed-form, except Mesh, which walks a hierarchy of
// its own over its triangles to the answer the exhaustive loop gives.
package geom

import (
	vm "nowrender/internal/vecmath"
)

// Hit describes a ray-surface intersection.
type Hit struct {
	// T is the ray parameter of the hit; for unit-length directions this
	// is the Euclidean distance from the ray origin.
	T float64
	// Point is the world-space intersection point.
	Point vm.Vec3
	// Normal is the unit outward surface normal at Point. It always
	// faces against the incoming ray (flipped when the ray hits a
	// surface from inside), with Inside reporting whether flipping
	// occurred.
	Normal vm.Vec3
	// Inside is true when the ray origin was inside the closed surface —
	// needed to pick the right refraction index ratio.
	Inside bool
}

// Shape is a geometric surface a ray can hit. The ray travels by value:
// a *vm.Ray through the interface would escape to the heap on every
// call (trace.TestTraceAllocsZero pins this).
type Shape interface {
	// IntersectT returns the nearest parameter t in (tMin, tMax) at
	// which r meets the surface, and which part of the shape it met
	// (cylinder and cone: partLateral/partBase/partCap; mesh: the
	// triangle index; 0 otherwise). ok is false when the ray misses.
	IntersectT(r vm.Ray, tMin, tMax float64) (t float64, part int32, ok bool)
	// HitAt completes the hit IntersectT found: t and part must come
	// from IntersectT on the same ray.
	HitAt(r vm.Ray, t float64, part int32) Hit
	// Bounds returns a world-space axis-aligned bounding box fully
	// containing the shape. Unbounded shapes (Plane) return a very large
	// but finite box so the voxel grid can still clip them.
	Bounds() vm.AABB
}

// Intersect returns the nearest hit of r on s with t in (tMin, tMax):
// both phases in one call, for callers that test one shape at a time and
// want the whole Hit (the tests of every package that builds shapes).
func Intersect(s Shape, r vm.Ray, tMin, tMax float64) (Hit, bool) {
	t, part, ok := s.IntersectT(r, tMin, tMax)
	if !ok {
		return Hit{}, false
	}
	return s.HitAt(r, t, part), true
}

// Parts of a capped cylinder or cone.
const (
	partLateral int32 = iota
	partBase
	partCap
)

// faceForward flips n to oppose d, returning the flipped normal and
// whether a flip happened (i.e. the ray was inside the surface).
func faceForward(n, d vm.Vec3) (vm.Vec3, bool) {
	if n.Dot(d) > 0 {
		return n.Neg(), true
	}
	return n, false
}

// HugeExtent bounds "infinite" primitives. Scenes are expected to fit in
// a few thousand units; the grid clips object boxes to the scene box, so
// the exact value only needs to be large.
const HugeExtent = 1e6
