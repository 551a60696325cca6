package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Triangle is a single triangle with optional per-vertex normals
// (smooth shading). With nil normals the geometric normal is used.
type Triangle struct {
	P0, P1, P2 vm.Vec3
	// N0..N2 are optional vertex normals for smooth triangles; all three
	// must be set together.
	N0, N1, N2 *vm.Vec3
}

// NewTriangle returns a flat triangle.
func NewTriangle(p0, p1, p2 vm.Vec3) *Triangle {
	return &Triangle{P0: p0, P1: p1, P2: p2}
}

// NewSmoothTriangle returns a triangle with interpolated vertex normals.
func NewSmoothTriangle(p0, p1, p2, n0, n1, n2 vm.Vec3) *Triangle {
	n0n, n1n, n2n := n0.Norm(), n1.Norm(), n2.Norm()
	return &Triangle{P0: p0, P1: p1, P2: p2, N0: &n0n, N1: &n1n, N2: &n2n}
}

// IntersectT implements Shape using the Möller–Trumbore algorithm.
func (tr *Triangle) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	t, _, _, ok := tr.mollerTrumbore(r)
	if !ok || t <= tMin || t >= tMax {
		return 0, 0, false
	}
	return t, 0, true
}

// mollerTrumbore returns the parameter and barycentric coordinates at
// which r's line crosses the triangle; ok is false when it misses.
func (tr *Triangle) mollerTrumbore(r vm.Ray) (t, u, v float64, ok bool) {
	e1 := tr.P1.Sub(tr.P0)
	e2 := tr.P2.Sub(tr.P0)
	pv := r.Dir.Cross(e2)
	det := e1.Dot(pv)
	if math.Abs(det) < vm.Eps {
		return 0, 0, 0, false
	}
	invDet := 1 / det
	tv := r.Origin.Sub(tr.P0)
	u = tv.Dot(pv) * invDet
	if u < 0 || u > 1 {
		return 0, 0, 0, false
	}
	qv := tv.Cross(e1)
	v = r.Dir.Dot(qv) * invDet
	if v < 0 || u+v > 1 {
		return 0, 0, 0, false
	}
	return e2.Dot(qv) * invDet, u, v, true
}

// HitAt implements Shape: it redoes Möller–Trumbore for the barycentric
// coordinates rather than carry them through every candidate test.
func (tr *Triangle) HitAt(r vm.Ray, t float64, _ int32) Hit {
	_, u, v, _ := tr.mollerTrumbore(r)
	var outward vm.Vec3
	if tr.N0 != nil {
		outward = tr.N0.Scale(1 - u - v).Add(tr.N1.Scale(u)).Add(tr.N2.Scale(v)).Norm()
	} else {
		outward = tr.P1.Sub(tr.P0).Cross(tr.P2.Sub(tr.P0)).Norm()
	}
	normal, inside := faceForward(outward, r.Dir)
	return Hit{T: t, Point: r.At(t), Normal: normal, Inside: inside, U: u, V: v}
}

// Bounds implements Shape.
func (tr *Triangle) Bounds() vm.AABB {
	return vm.EmptyAABB().Extend(tr.P0).Extend(tr.P1).Extend(tr.P2).Pad(vm.Eps)
}

// Mesh is a bag of triangles intersected exhaustively. Meshes in the test
// scenes are small; large meshes should be placed in the voxel grid,
// which already distributes the triangles spatially.
type Mesh struct {
	Tris []*Triangle

	bounds vm.AABB
}

// NewMesh returns a mesh over the given triangles.
func NewMesh(tris []*Triangle) *Mesh {
	m := &Mesh{Tris: tris, bounds: vm.EmptyAABB()}
	for _, t := range tris {
		m.bounds = m.bounds.Union(t.Bounds())
	}
	return m
}

// IntersectT implements Shape; part is the index of the nearest triangle
// (the lower index on a tie).
func (m *Mesh) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	if _, hit := m.bounds.IntersectRay(r, tMin, tMax); !hit {
		return 0, 0, false
	}
	best, part := tMax, int32(-1)
	for i, tr := range m.Tris {
		if t, _, _, ok := tr.mollerTrumbore(r); ok && t > tMin && t < best {
			best, part = t, int32(i)
		}
	}
	return best, part, part >= 0
}

// HitAt implements Shape.
func (m *Mesh) HitAt(r vm.Ray, t float64, part int32) Hit {
	return m.Tris[part].HitAt(r, t, 0)
}

// Bounds implements Shape.
func (m *Mesh) Bounds() vm.AABB { return m.bounds }
