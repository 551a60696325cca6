package geom

import (
	"math"
	"sort"

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

// HitAt implements Shape. A smooth triangle redoes Möller–Trumbore for the
// barycentric coordinates its normal interpolates with, rather than carry
// them through every candidate test; a flat one needs none.
func (tr *Triangle) HitAt(r vm.Ray, t float64, _ int32) Hit {
	var outward vm.Vec3
	if tr.N0 != nil {
		_, u, v, _ := tr.mollerTrumbore(r)
		outward = tr.N0.Scale(1 - u - v).Add(tr.N1.Scale(u)).Add(tr.N2.Scale(v)).Norm()
	} else {
		outward = tr.P1.Sub(tr.P0).Cross(tr.P2.Sub(tr.P0)).Norm()
	}
	normal, inside := faceForward(outward, r.Dir)
	return Hit{T: t, Point: r.At(t), Normal: normal, Inside: inside}
}

// Bounds implements Shape.
func (tr *Triangle) Bounds() vm.AABB {
	return vm.EmptyAABB().Extend(tr.P0).Extend(tr.P1).Extend(tr.P2).Pad(vm.Eps)
}

// meshLeafSize is the triangle count at or under which the hierarchy
// stops splitting.
const meshLeafSize = 4

// meshStackDepth bounds the walk's fixed stack. The median split halves
// the triangle count at every level whatever the geometry looks like, so
// the largest mesh an int32 index allows is 30 levels deep, and the walk
// holds at most one pending node per level plus the one it is visiting.
const meshStackDepth = 32

// meshNode is one node of a mesh's flat hierarchy. A leaf (n > 0) owns
// the triangle indices order[start:start+n]; an inner node (n == 0) has
// its left child right after it and its right child at index start, and
// axis is the axis its triangles were split on.
type meshNode struct {
	box      vm.AABB
	start, n int32
	axis     uint8
}

// Mesh is a triangle mesh with a bounding-volume hierarchy of its own
// over the triangle indices, built once by NewMesh: a ray meets the few
// triangles whose boxes it enters instead of all of them, however the
// mesh is placed in the voxel grid. A mesh is read-only after NewMesh
// and may be intersected from any number of goroutines.
//
// Clip returns a MeshView: the same triangles, boxes and hierarchy
// (shared, never copied) restricted to the triangles whose box overlaps
// a slab. Part indices mean the same triangle in a mesh and in all of
// its views.
type Mesh struct {
	Tris []*Triangle

	bounds vm.AABB
	// boxes[i] is Tris[i].Bounds(); nodes[0] is the hierarchy's root
	// (absent for an empty mesh) and order the triangle indices its
	// leaves slice.
	boxes []vm.AABB
	nodes []meshNode
	order []int32
}

// MeshView is a mesh restricted to the triangles whose box overlaps a
// slab: the parent mesh, the slab, the kept triangles' bounds and their
// count, and nothing of the parent copied. It implements Shape, and is
// read-only after Clip.
type MeshView struct {
	mesh     *Mesh
	slab     vm.AABB
	bounds   vm.AABB
	resident int
}

// NewMesh returns a mesh over the given triangles and builds its
// hierarchy: median split on the longest axis of the centroids' box down
// to leaves of meshLeafSize, so a mesh that small is a single leaf.
func NewMesh(tris []*Triangle) *Mesh {
	m := &Mesh{
		Tris:   tris,
		bounds: vm.EmptyAABB(),
		boxes:  make([]vm.AABB, len(tris)),
		order:  make([]int32, len(tris)),
	}
	centroids := make([]vm.Vec3, len(tris))
	for i, t := range tris {
		m.boxes[i] = t.Bounds()
		m.bounds = m.bounds.Union(m.boxes[i])
		m.order[i] = int32(i)
		centroids[i] = t.P0.Add(t.P1).Add(t.P2).Scale(1.0 / 3)
	}
	if len(tris) > 0 {
		m.nodes = make([]meshNode, 0, 2*(len(tris)/meshLeafSize)+1)
		m.split(0, len(tris), centroids)
	}
	return m
}

// split appends the subtree over order[lo:hi] to m.nodes.
func (m *Mesh) split(lo, hi int, centroids []vm.Vec3) {
	box, spread := vm.EmptyAABB(), vm.EmptyAABB()
	for _, ti := range m.order[lo:hi] {
		box = box.Union(m.boxes[ti])
		spread = spread.Extend(centroids[ti])
	}
	self := len(m.nodes)
	if hi-lo <= meshLeafSize {
		m.nodes = append(m.nodes, meshNode{box: box, start: int32(lo), n: int32(hi - lo)})
		return
	}
	size := spread.Size()
	axis := 0
	if size.Y > size.Axis(axis) {
		axis = 1
	}
	if size.Z > size.Axis(axis) {
		axis = 2
	}
	// Ties fall back to the triangle index, so coincident centroids still
	// split in half and the hierarchy is the same on every build.
	part := m.order[lo:hi]
	sort.Slice(part, func(a, b int) bool {
		ca, cb := centroids[part[a]].Axis(axis), centroids[part[b]].Axis(axis)
		return ca < cb || (ca == cb && part[a] < part[b])
	})
	mid := lo + (hi-lo)/2
	m.nodes = append(m.nodes, meshNode{box: box, axis: uint8(axis)})
	m.split(lo, mid, centroids)
	m.nodes[self].start = int32(len(m.nodes))
	m.split(mid, hi, centroids)
}

// Clip returns the view of m that keeps exactly the triangles whose
// Bounds overlap slab: it answers every ray as NewMesh over those
// triangles would, up to the part index, which stays m's. Nothing is
// copied or built; one pass over the stored boxes gives the view its
// Bounds and NumTris.
func (m *Mesh) Clip(slab vm.AABB) MeshView {
	v := MeshView{mesh: m, slab: slab, bounds: vm.EmptyAABB()}
	for i := range m.boxes {
		if m.boxes[i].Overlaps(slab) {
			v.bounds = v.bounds.Union(m.boxes[i])
			v.resident++
		}
	}
	return v
}

// NumTris returns how many triangles the mesh tests: all of Tris.
func (m *Mesh) NumTris() int { return len(m.Tris) }

// IntersectT implements Shape; part is the index of the nearest triangle
// (the lower index on a tie).
func (m *Mesh) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	return m.walk(r, tMin, tMax, &m.bounds, nil)
}

// walk is the one hierarchy walk of a mesh and of its views: it visits
// the nodes nearer child first, dropping every node the ray enters no
// sooner than the best hit so far, and — for a view, whose slab is
// non-nil — every node and triangle whose box misses the slab.
func (m *Mesh) walk(r vm.Ray, tMin, tMax float64, bounds, slab *vm.AABB) (float64, int32, bool) {
	if _, hit := bounds.IntersectRay(r, tMin, tMax); !hit || len(m.nodes) == 0 {
		return 0, 0, false
	}
	inv, neg := reciprocalDir(r.Dir)
	best, part := tMax, int32(-1)
	var stack [meshStackDepth]int32
	sp := 0 // stack[0] is the root, node 0
	for sp >= 0 {
		ni := stack[sp]
		sp--
		n := &m.nodes[ni]
		if slab != nil && !n.box.Overlaps(*slab) {
			continue
		}
		if !rayEntersBefore(&n.box, r.Origin, inv, tMin, best) {
			continue
		}
		if n.n == 0 {
			near, far := ni+1, n.start
			if neg[n.axis] {
				near, far = far, near
			}
			stack[sp+1], stack[sp+2] = far, near
			sp += 2
			continue
		}
		for _, ti := range m.order[n.start : n.start+n.n] {
			if slab != nil && !m.boxes[ti].Overlaps(*slab) {
				continue
			}
			t, _, _, ok := m.Tris[ti].mollerTrumbore(r)
			if ok && t > tMin && (t < best || (t == best && part >= 0 && ti < part)) {
				best, part = t, ti
			}
		}
	}
	return best, part, part >= 0
}

// NumTris returns how many triangles the view kept.
func (v *MeshView) NumTris() int { return v.resident }

// IntersectT implements Shape, as Mesh.IntersectT over the kept
// triangles; part is the parent mesh's triangle index.
func (v *MeshView) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	return v.mesh.walk(r, tMin, tMax, &v.bounds, &v.slab)
}

// HitAt implements Shape.
func (v *MeshView) HitAt(r vm.Ray, t float64, part int32) Hit {
	return v.mesh.HitAt(r, t, part)
}

// Bounds implements Shape: the kept triangles' boxes, empty when the
// view kept none.
func (v *MeshView) Bounds() vm.AABB { return v.bounds }

// reciprocalDir hoists the per-ray half of the slab test out of the walk.
// A component too small to invert (zero or denormal) gets the largest
// finite float in place of an infinity, so no product in rayEntersBefore
// is ever 0 * Inf.
func reciprocalDir(d vm.Vec3) (inv vm.Vec3, neg [3]bool) {
	finite := func(x float64) float64 {
		return max(-math.MaxFloat64, min(math.MaxFloat64, 1/x))
	}
	return vm.Vec3{X: finite(d.X), Y: finite(d.Y), Z: finite(d.Z)},
		[3]bool{d.X < 0, d.Y < 0, d.Z < 0}
}

// rayEntersBefore is the hierarchy's own slab test: whether the ray
// o + t/inv overlaps b somewhere in [tMin, tMax]. It errs only towards
// true. Every box is padded by vm.Eps, a million times the rounding
// error of the products below at scene scale, so a hit Möller–Trumbore
// accepts lies strictly inside its node's interval, and a tie
// (tNear == tMax) passes. Along an axis the ray does not move on, the
// huge inv sends both products to the same infinity outside the slab,
// which empties the interval, and to opposite ones (or to zero, on a
// face) inside it.
func rayEntersBefore(b *vm.AABB, o, inv vm.Vec3, tMin, tMax float64) bool {
	x0, x1 := (b.Min.X-o.X)*inv.X, (b.Max.X-o.X)*inv.X
	y0, y1 := (b.Min.Y-o.Y)*inv.Y, (b.Max.Y-o.Y)*inv.Y
	z0, z1 := (b.Min.Z-o.Z)*inv.Z, (b.Max.Z-o.Z)*inv.Z
	tMin = max(tMin, min(x0, x1), min(y0, y1), min(z0, z1))
	tMax = min(tMax, max(x0, x1), max(y0, y1), max(z0, z1))
	return tMin <= tMax
}

// HitAt implements Shape.
func (m *Mesh) HitAt(r vm.Ray, t float64, part int32) Hit {
	return m.Tris[part].HitAt(r, t, 0)
}

// Bounds implements Shape.
func (m *Mesh) Bounds() vm.AABB { return m.bounds }
