package grid

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// dda is the state of one incremental traversal — the "modified 3D-DDA"
// of the paper (§2), i.e. Amanatides & Woo: after initialisation each
// step is one comparison and one addition per axis. Walk and
// AppendVoxels are its two drivers, so they cannot visit different
// voxels.
type dda struct {
	idx          int     // flat index of the current voxel
	tEnter, tMax float64 // ray parameters at grid entry and at the walk's end
	// Per axis: voxels left before the grid's face, the flat-index change
	// of one step, the parameter of the next boundary and its increment.
	left, stride  [3]int
	tNext, tDelta [3]float64
}

// start positions d for a traversal of ray r over [tMin, tMax] in its
// first voxel; false when the ray misses the grid.
func (g *Grid) start(d *dda, r vm.Ray, tMin, tMax float64) bool {
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
	d.idx, d.tEnter, d.tMax = g.Index(ix, iy, iz), iv.Min, iv.Max
	coord := [3]int{ix, iy, iz}
	dims := [3]int{g.nx, g.ny, g.nz}
	strides := [3]int{1, g.nx, g.nx * g.ny}
	for a := 0; a < 3; a++ {
		dir, cell := r.Dir.Axis(a), g.cellSize.Axis(a)
		switch {
		case dir > 0:
			d.left[a], d.stride[a] = dims[a]-1-coord[a], strides[a]
			d.tDelta[a] = cell / dir
			boundary := g.bounds.Min.Axis(a) + float64(coord[a]+1)*cell
			d.tNext[a] = (boundary - r.Origin.Axis(a)) / dir
		case dir < 0:
			d.left[a], d.stride[a] = coord[a], -strides[a]
			d.tDelta[a] = -cell / dir
			boundary := g.bounds.Min.Axis(a) + float64(coord[a])*cell
			d.tNext[a] = (boundary - r.Origin.Axis(a)) / dir
		default:
			// Never the nearest boundary (left is 0 so that even a
			// zero-direction ray ends).
			d.left[a], d.tDelta[a], d.tNext[a] = 0, math.Inf(1), math.Inf(1)
		}
	}
	return true
}

// nearest returns the axis whose boundary the ray crosses first, the
// lower axis on a tie.
func (d *dda) nearest() int {
	axis := 0
	if d.tNext[1] < d.tNext[axis] {
		axis = 1
	}
	if d.tNext[2] < d.tNext[axis] {
		axis = 2
	}
	return axis
}

// advance steps into the neighbouring voxel across axis; false when the
// ray ends inside the current voxel or leaves the grid.
func (d *dda) advance(axis int) bool {
	if d.tNext[axis] > d.tMax || d.left[axis] == 0 {
		return false
	}
	d.tNext[axis] += d.tDelta[axis]
	d.left[axis]--
	d.idx += d.stride[axis]
	return true
}

// Walk traverses the voxels pierced by ray r over parameter range
// [tMin, tMax] in front-to-back order, calling visit for each. visit
// receives the flat voxel index and the parameter interval [tEnter,
// tLeave] the ray spends inside the voxel; returning false stops the
// walk early (used by the tracer once a hit is confirmed inside the
// current voxel).
func (g *Grid) Walk(r vm.Ray, tMin, tMax float64, visit func(idx int, tEnter, tLeave float64) bool) {
	var d dda
	if !g.start(&d, r, tMin, tMax) {
		return
	}
	tEnter := d.tEnter
	for {
		axis := d.nearest()
		// tNext is never NaN (+Inf on an axis the ray does not move
		// along), so a plain compare clamps it.
		tLeave := d.tNext[axis]
		if tLeave > d.tMax {
			tLeave = d.tMax
		}
		if !visit(d.idx, tEnter, tLeave) || !d.advance(axis) {
			return
		}
		tEnter = tLeave
	}
}

// WalkSegment traverses voxels along the segment from a to b, a
// convenience wrapper used for shadow rays (which have a natural end at
// the light position).
func (g *Grid) WalkSegment(a, b vm.Vec3, visit func(idx int, tEnter, tLeave float64) bool) {
	d := b.Sub(a)
	g.Walk(vm.Ray{Origin: a, Dir: d}, 0, 1, visit)
}

// AppendVoxels appends to dst the flat indices of the voxels Walk visits
// for the same arguments, in the same order, and returns the extended
// slice. It is the coherence engine's registration path: no visitor call
// and no parameter intervals, and a full dst doubles, so an arena filled
// ray after ray is copied O(log n) times.
func (g *Grid) AppendVoxels(dst []int32, r vm.Ray, tMin, tMax float64) []int32 {
	var d dda
	if !g.start(&d, r, tMin, tMax) {
		return dst
	}
	// A walk starts in one voxel and steps at most n-1 times per axis.
	n, most := len(dst), g.nx+g.ny+g.nz-2
	if cap(dst)-n < most {
		dst = append(make([]int32, 0, 2*cap(dst)+most), dst...)
	}
	dst = dst[:n+most]
	for {
		dst[n] = int32(d.idx)
		n++
		if !d.advance(d.nearest()) {
			return dst[:n]
		}
	}
}

// VoxelsOnRay collects the flat indices of all voxels the ray visits, in
// order (tests).
func (g *Grid) VoxelsOnRay(r vm.Ray, tMin, tMax float64) []int32 {
	return g.AppendVoxels(nil, r, tMin, tMax)
}
