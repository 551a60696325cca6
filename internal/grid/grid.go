// Package grid implements uniform spatial subdivision of the scene
// volume into voxels, with 3D-DDA ray traversal (Amanatides & Woo). The
// paper's frame-coherence algorithm (§2) is built on exactly this
// structure: rays are walked through the voxels they traverse, pixels are
// registered on those voxels, and object motion marks voxels changed.
//
// The grid is deliberately decoupled from the scene: it stores opaque
// int32 item IDs against per-voxel lists, so the same structure serves as
// both the tracer's acceleration structure (items = object indices) and
// the coherence engine's change map.
package grid

import (
	"fmt"
	"math"

	vm "nowrender/internal/vecmath"
)

// Grid is a uniform voxel grid over an axis-aligned region.
type Grid struct {
	bounds     vm.AABB
	nx, ny, nz int
	cellSize   vm.Vec3
	invCell    vm.Vec3
	// items holds every voxel's item list back to back, and voxel v's
	// list is items[offs[v]:offs[v+1]]. Both are nil until Fill, so a
	// grid nothing is filled into (the coherence engine's registration
	// grid) holds no table.
	offs  []int32
	items []int32
	// outer is bounds moved out on every side by 1e-9 of (1 + |min| +
	// |max|) on that axis: the faces AppendVoxels' early reject tests.
	// Last, so that the fields the tracer's walk reads keep their place.
	outer vm.AABB
}

// New creates a grid over bounds with the given per-axis voxel counts.
// Counts are clamped to at least 1. Bounds must be non-empty.
func New(bounds vm.AABB, nx, ny, nz int) (*Grid, error) {
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("grid: empty bounds")
	}
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if nz < 1 {
		nz = 1
	}
	size := bounds.Size()
	cell := vm.V(size.X/float64(nx), size.Y/float64(ny), size.Z/float64(nz))
	// Guard degenerate flat scenes: ensure cells have positive extent.
	const minCell = 1e-12
	if cell.X < minCell {
		cell.X = minCell
	}
	if cell.Y < minCell {
		cell.Y = minCell
	}
	if cell.Z < minCell {
		cell.Z = minCell
	}
	lo, hi := bounds.Min, bounds.Max
	m := vm.V(1+math.Abs(lo.X)+math.Abs(hi.X), 1+math.Abs(lo.Y)+math.Abs(hi.Y), 1+math.Abs(lo.Z)+math.Abs(hi.Z)).Scale(1e-9)
	return &Grid{
		bounds: bounds,
		nx:     nx, ny: ny, nz: nz,
		cellSize: cell,
		invCell:  vm.V(1/cell.X, 1/cell.Y, 1/cell.Z),
		outer:    vm.AABB{Min: lo.Sub(m), Max: hi.Add(m)},
	}, nil
}

// AutoResolution picks a per-axis voxel count for n items in bounds using
// the classic n^(1/3) * density heuristic POV-Ray-era tracers used.
// The result is clamped to [1, 64] per axis.
func AutoResolution(bounds vm.AABB, n int) (int, int, int) {
	if n < 1 {
		n = 1
	}
	target := math.Cbrt(float64(n)) * 3
	k := int(math.Max(1, math.Min(64, math.Round(target))))
	// Scale axes by relative extent so long thin scenes get long thin
	// grids.
	size := bounds.Size()
	maxExt := math.Max(size.X, math.Max(size.Y, size.Z))
	if maxExt <= 0 {
		return 1, 1, 1
	}
	scale := func(ext float64) int {
		v := int(math.Round(float64(k) * ext / maxExt))
		if v < 1 {
			return 1
		}
		return v
	}
	return scale(size.X), scale(size.Y), scale(size.Z)
}

// Bounds returns the grid region.
func (g *Grid) Bounds() vm.AABB { return g.bounds }

// Dims returns the per-axis voxel counts.
func (g *Grid) Dims() (nx, ny, nz int) { return g.nx, g.ny, g.nz }

// NumVoxels returns the total voxel count.
func (g *Grid) NumVoxels() int { return g.nx * g.ny * g.nz }

// CellSize returns the voxel extent.
func (g *Grid) CellSize() vm.Vec3 { return g.cellSize }

// Index flattens voxel coordinates into a cell index. Coordinates must be
// in range.
func (g *Grid) Index(ix, iy, iz int) int {
	return (iz*g.ny+iy)*g.nx + ix
}

// Coords unflattens a cell index.
func (g *Grid) Coords(idx int) (ix, iy, iz int) {
	ix = idx % g.nx
	iy = (idx / g.nx) % g.ny
	iz = idx / (g.nx * g.ny)
	return
}

// VoxelOf returns the voxel containing point p, clamped to the grid when
// p lies on the boundary; ok is false when p is outside the grid.
func (g *Grid) VoxelOf(p vm.Vec3) (ix, iy, iz int, ok bool) {
	if !g.bounds.Contains(p) {
		return 0, 0, 0, false
	}
	rel := p.Sub(g.bounds.Min)
	ix = clampInt(int(rel.X*g.invCell.X), 0, g.nx-1)
	iy = clampInt(int(rel.Y*g.invCell.Y), 0, g.ny-1)
	iz = clampInt(int(rel.Z*g.invCell.Z), 0, g.nz-1)
	return ix, iy, iz, true
}

// VoxelBounds returns the world-space box of a voxel.
func (g *Grid) VoxelBounds(ix, iy, iz int) vm.AABB {
	min := g.bounds.Min.Add(vm.V(
		float64(ix)*g.cellSize.X,
		float64(iy)*g.cellSize.Y,
		float64(iz)*g.cellSize.Z,
	))
	return vm.AABB{Min: min, Max: min.Add(g.cellSize)}
}

// Fill lists item i in every voxel its box overlaps (clipped to the
// grid), for each i in [0, n) whose box reports ok, and replaces what the
// grid listed before. It takes two passes over the boxes — count, then
// place — so the grid holds exactly one offsets table and one items
// table, and each voxel lists its items in ascending order. box is
// called twice per item and must answer the same both times.
func (g *Grid) Fill(n int, box func(i int) (vm.AABB, bool)) {
	g.offs = make([]int32, g.NumVoxels()+1)
	// Pass one counts each voxel's items into offs[v+1] ...
	g.visit(n, box, func(c int, _ int32) { g.offs[c+1]++ })
	for v := 1; v < len(g.offs); v++ {
		g.offs[v] += g.offs[v-1]
	}
	// ... pass two places them, using offs[v] as voxel v's cursor, so at
	// its end offs[v] is voxel v+1's start; the shift restores the table.
	g.items = make([]int32, g.offs[len(g.offs)-1])
	g.visit(n, box, func(c int, id int32) {
		g.items[g.offs[c]] = id
		g.offs[c]++
	})
	copy(g.offs[1:], g.offs)
	g.offs[0] = 0
}

// visit calls fn(voxel, i) for every voxel the box of each item i
// overlaps, items in ascending order.
func (g *Grid) visit(n int, box func(i int) (vm.AABB, bool), fn func(c int, id int32)) {
	for i := 0; i < n; i++ {
		b, ok := box(i)
		if !ok {
			continue
		}
		lo, hi, ok := g.voxelRange(b)
		if !ok {
			continue
		}
		for iz := lo[2]; iz <= hi[2]; iz++ {
			for iy := lo[1]; iy <= hi[1]; iy++ {
				for ix := lo[0]; ix <= hi[0]; ix++ {
					fn(g.Index(ix, iy, iz), int32(i))
				}
			}
		}
	}
}

// Items returns the item list of a voxel by flat index (nil while
// nothing is filled). The returned slice is owned by the grid and must
// not be mutated.
func (g *Grid) Items(idx int) []int32 {
	if g.offs == nil {
		return nil
	}
	return g.items[g.offs[idx]:g.offs[idx+1]:g.offs[idx+1]]
}

// VoxelRange clips box b to the grid and returns inclusive voxel
// coordinate ranges; ok is false when b misses the grid entirely. The
// object-space partition uses this to histogram geometry along an axis.
func (g *Grid) VoxelRange(b vm.AABB) (lo, hi [3]int, ok bool) {
	return g.voxelRange(b)
}

// voxelRange clips box b to the grid and returns inclusive voxel
// coordinate ranges.
func (g *Grid) voxelRange(b vm.AABB) (lo, hi [3]int, ok bool) {
	if !g.bounds.Overlaps(b) {
		return lo, hi, false
	}
	min := b.Min.Max(g.bounds.Min).Sub(g.bounds.Min)
	max := b.Max.Min(g.bounds.Max).Sub(g.bounds.Min)
	for a := 0; a < 3; a++ {
		n := []int{g.nx, g.ny, g.nz}[a]
		inv := g.invCell.Axis(a)
		lo[a] = clampInt(int(min.Axis(a)*inv), 0, n-1)
		hi[a] = clampInt(int(max.Axis(a)*inv), 0, n-1)
	}
	return lo, hi, true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
