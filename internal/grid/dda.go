package grid

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Walker is the state of one incremental traversal — the "modified
// 3D-DDA" of the paper (§2), i.e. Amanatides & Woo: after initialisation
// each step is one comparison and one addition per axis. It is the one
// stepping primitive: Walk, AppendVoxels, the tracer's Worker queries and
// the object-space router's shard walks all drive it, so they cannot
// visit different voxels.
//
//	var w grid.Walker
//	if g.StartWalk(&w, r, tMin, tMax) {
//		for {
//			idx, tLeave, axis := w.Voxel()
//			... // the ray is in voxel idx until tLeave
//			if !w.Advance(axis) {
//				break
//			}
//		}
//	}
type Walker struct {
	idx          int     // flat index of the current voxel
	tEnter, tMax float64 // ray parameters at grid entry and at the walk's end
	// Per axis: voxels left before the grid's face, the flat-index change
	// of one step, the parameter of the next boundary and its increment.
	left, stride  [3]int
	tNext, tDelta [3]float64
}

// StartWalk positions w for a traversal of ray r over [tMin, tMax] in
// its first voxel; false when the ray misses the grid.
func (g *Grid) StartWalk(w *Walker, r vm.Ray, tMin, tMax float64) bool {
	iv, hit := g.bounds.IntersectRay(r, tMin, tMax)
	if !hit {
		return false
	}
	// Nudge the start point inside the grid to dodge boundary ambiguity.
	p := r.At(iv.Min + 1e-12*(1+math.Abs(iv.Min)))
	ix, iy, iz, ok := g.VoxelOf(p)
	if !ok {
		// Ray technically grazes the boundary; clamp the entry point.
		p = p.Max(g.bounds.Min).Min(g.bounds.Max)
		if ix, iy, iz, ok = g.VoxelOf(p); !ok {
			return false
		}
	}
	w.idx, w.tEnter, w.tMax = g.Index(ix, iy, iz), iv.Min, iv.Max
	w.left[0], w.stride[0], w.tNext[0], w.tDelta[0] = startAxis(r.Dir.X, r.Origin.X, g.bounds.Min.X, g.cellSize.X, ix, g.nx, 1)
	w.left[1], w.stride[1], w.tNext[1], w.tDelta[1] = startAxis(r.Dir.Y, r.Origin.Y, g.bounds.Min.Y, g.cellSize.Y, iy, g.ny, g.nx)
	w.left[2], w.stride[2], w.tNext[2], w.tDelta[2] = startAxis(r.Dir.Z, r.Origin.Z, g.bounds.Min.Z, g.cellSize.Z, iz, g.nz, g.nx*g.ny)
	return true
}

// startAxis returns one axis's walk state: the ray moves along it with
// direction component dir from origin, the grid starts at lo with n
// cells of size cell and flat-index stride, and the walk starts in cell
// coord. It is small enough to inline, so StartWalk makes no call per
// axis. tNext and tDelta are divisions by dir, not products with 1/dir:
// the product rounds twice and differs from the quotient on some rays,
// and Walk's tLeave values are pinned against a reference walker that
// divides.
func startAxis(dir, origin, lo, cell float64, coord, n, stride int) (left, step int, tNext, tDelta float64) {
	if dir > 0 {
		return n - 1 - coord, stride, (lo + float64(coord+1)*cell - origin) / dir, cell / dir
	}
	if dir < 0 {
		return coord, -stride, (lo + float64(coord)*cell - origin) / dir, -cell / dir
	}
	// Never the nearest boundary (left is 0 so that even a zero-direction
	// ray ends).
	return 0, 0, inf, inf
}

// inf is +Inf as a value: two math.Inf calls would cost startAxis its
// place under the inliner's budget.
var inf = math.Inf(1)

// Voxel returns the flat index of the voxel the walk is in, the
// parameter at which the ray leaves it (clamped to the walk's end) and
// the axis whose boundary it crosses there — the lower axis on a tie.
func (w *Walker) Voxel() (idx int, tLeave float64, axis int) {
	if w.tNext[1] < w.tNext[axis] {
		axis = 1
	}
	if w.tNext[2] < w.tNext[axis] {
		axis = 2
	}
	// tNext is never NaN (+Inf on an axis the ray does not move along),
	// so a plain compare clamps it.
	tLeave = w.tNext[axis]
	if tLeave > w.tMax {
		tLeave = w.tMax
	}
	return w.idx, tLeave, axis
}

// Advance steps into the neighbouring voxel across axis (the one Voxel
// returned); false when the ray ends inside the current voxel or leaves
// the grid.
func (w *Walker) Advance(axis int) bool {
	if w.tNext[axis] > w.tMax || w.left[axis] == 0 {
		return false
	}
	w.tNext[axis] += w.tDelta[axis]
	w.left[axis]--
	w.idx += w.stride[axis]
	return true
}

// Walk traverses the voxels pierced by ray r over parameter range
// [tMin, tMax] in front-to-back order, calling visit for each. visit
// receives the flat voxel index and the parameter interval [tEnter,
// tLeave] the ray spends inside the voxel; returning false stops the
// walk early. The visitor form of the Walker, for callers off the
// per-ray hot path.
func (g *Grid) Walk(r vm.Ray, tMin, tMax float64, visit func(idx int, tEnter, tLeave float64) bool) {
	var w Walker
	if !g.StartWalk(&w, r, tMin, tMax) {
		return
	}
	tEnter := w.tEnter
	for {
		idx, tLeave, axis := w.Voxel()
		if !visit(idx, tEnter, tLeave) || !w.Advance(axis) {
			return
		}
		tEnter = tLeave
	}
}

// AppendVoxels appends to dst the flat indices of the voxels Walk visits
// for the same arguments, in the same order, and returns the extended
// slice. It is the coherence engine's registration path: no visitor call
// and no parameter intervals, and a segment that lies beyond one face of
// the box (see beyondFace) returns before the walk is set up — on Newton
// most registration walks miss the motion box. A dst with fewer than
// MaxWalk free entries doubles, so an arena filled ray after ray is copied
// O(log n) times.
func (g *Grid) AppendVoxels(dst []int32, r vm.Ray, tMin, tMax float64) []int32 {
	if tMin >= 0 && g.beyondFace(&r, tMax) {
		return dst
	}
	var w Walker
	if !g.StartWalk(&w, r, tMin, tMax) {
		return dst
	}
	n, most := len(dst), g.MaxWalk()
	if cap(dst)-n < most {
		dst = append(make([]int32, 0, 2*cap(dst)+most), dst...)
	}
	dst = dst[:n+most]
	for {
		idx, _, axis := w.Voxel()
		dst[n] = int32(idx)
		n++
		if !w.Advance(axis) {
			return dst[:n]
		}
	}
}

// MaxWalk is the most voxels one walk visits: it starts in one voxel and
// steps at most n-1 times along each axis.
func (g *Grid) MaxWalk() int { return g.nx + g.ny + g.nz - 2 }

// beyondFace reports whether the segment from r's origin o to
// e = o + tMax·d lies wholly beyond one face of the box — both ends below
// its minimum or both above its maximum on one axis — so that StartWalk
// over any [tMin, tMax] with tMin >= 0 finds no voxel. It multiplies and
// compares only. The ends must clear the face by a margin far above the
// rounding of e and of StartWalk's slab test, which both scale with the
// magnitudes of o and of the face (e lies near the face when rounding
// matters): g.outer holds the faces moved out by 1e-9 of their own, and
// beyondSlab adds 1e-9 of o's. An infinite e compares by its sign; a NaN
// one (tMax +Inf along an axis the ray does not move on) refuses nothing.
func (g *Grid) beyondFace(r *vm.Ray, tMax float64) bool {
	o, d := r.Origin, r.Dir
	return beyondSlab(o.X, o.X+tMax*d.X, g.outer.Min.X, g.outer.Max.X) ||
		beyondSlab(o.Y, o.Y+tMax*d.Y, g.outer.Min.Y, g.outer.Max.Y) ||
		beyondSlab(o.Z, o.Z+tMax*d.Z, g.outer.Min.Z, g.outer.Max.Z)
}

// beyondSlab is beyondFace on one axis: o and e against the slab
// [lo, hi] the margin has already widened.
func beyondSlab(o, e, lo, hi float64) bool {
	m := 1e-9 * math.Abs(o)
	return o < lo-m && e < lo-m || o > hi+m && e > hi+m
}

// VoxelsOnRay collects the flat indices of all voxels the ray visits, in
// order (tests).
func (g *Grid) VoxelsOnRay(r vm.Ray, tMin, tMax float64) []int32 {
	return g.AppendVoxels(nil, r, tMin, tMax)
}
