package grid

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

func TestWalkAxisAligned(t *testing.T) {
	g := unitGrid(t, 4)
	// Straight through the middle along +X: 4 voxels in x order.
	r := vm.Ray{Origin: vm.V(-1, 0.6, 0.6), Dir: vm.V(1, 0, 0)}
	got := g.VoxelsOnRay(r, 0, math.Inf(1))
	if len(got) != 4 {
		t.Fatalf("visited %d voxels, want 4: %v", len(got), got)
	}
	for i, idx := range got {
		ix, iy, iz := g.Coords(int(idx))
		if ix != i || iy != 2 || iz != 2 {
			t.Errorf("step %d: voxel (%d,%d,%d)", i, ix, iy, iz)
		}
	}
}

func TestWalkReverseDirection(t *testing.T) {
	g := unitGrid(t, 4)
	r := vm.Ray{Origin: vm.V(2, 0.1, 0.1), Dir: vm.V(-1, 0, 0)}
	got := g.VoxelsOnRay(r, 0, math.Inf(1))
	if len(got) != 4 {
		t.Fatalf("visited %d voxels, want 4", len(got))
	}
	for i, idx := range got {
		ix, _, _ := g.Coords(int(idx))
		if ix != 3-i {
			t.Errorf("step %d: x=%d, want %d", i, ix, 3-i)
		}
	}
}

func TestWalkFromInside(t *testing.T) {
	g := unitGrid(t, 4)
	r := vm.Ray{Origin: vm.V(0.6, 0.6, 0.6), Dir: vm.V(0, 1, 0)}
	got := g.VoxelsOnRay(r, 0, math.Inf(1))
	// Starts in voxel y=2, exits through y=3: two voxels.
	if len(got) != 2 {
		t.Fatalf("visited %d voxels, want 2: %v", len(got), got)
	}
}

func TestWalkMiss(t *testing.T) {
	g := unitGrid(t, 4)
	r := vm.Ray{Origin: vm.V(-1, 5, 0), Dir: vm.V(1, 0, 0)}
	if got := g.VoxelsOnRay(r, 0, math.Inf(1)); len(got) != 0 {
		t.Errorf("miss visited %d voxels", len(got))
	}
}

func TestWalkRespectstMax(t *testing.T) {
	g := unitGrid(t, 4)
	r := vm.Ray{Origin: vm.V(-0.5, 0.1, 0.1), Dir: vm.V(1, 0, 0)}
	// tMax 0.75 => reaches x = 0.25 inside the grid, i.e. just into the
	// second voxel.
	got := g.VoxelsOnRay(r, 0, 0.76)
	if len(got) != 2 {
		t.Errorf("visited %d voxels with tight tMax: %v", len(got), got)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	g := unitGrid(t, 8)
	r := vm.Ray{Origin: vm.V(-1, 0.5, 0.5), Dir: vm.V(1, 0, 0)}
	n := 0
	g.Walk(r, 0, math.Inf(1), func(int, float64, float64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d voxels, want 3", n)
	}
}

func TestWalkIntervalsAreContiguous(t *testing.T) {
	g := unitGrid(t, 5)
	r := vm.Ray{Origin: vm.V(-0.3, -0.2, -0.1), Dir: vm.V(1, 0.9, 0.8).Norm()}
	prevLeave := math.NaN()
	first := true
	g.Walk(r, 0, math.Inf(1), func(idx int, tEnter, tLeave float64) bool {
		if tLeave < tEnter {
			t.Errorf("voxel %d: tLeave %v < tEnter %v", idx, tLeave, tEnter)
		}
		if !first && math.Abs(tEnter-prevLeave) > 1e-9 {
			t.Errorf("gap between voxels: prev leave %v, enter %v", prevLeave, tEnter)
		}
		first = false
		prevLeave = tLeave
		return true
	})
	if first {
		t.Fatal("diagonal ray visited no voxels")
	}
}

func TestWalkDiagonalVisitsNeighbours(t *testing.T) {
	g := unitGrid(t, 2)
	// Perfect diagonal from corner to corner.
	r := vm.Ray{Origin: vm.V(-0.5, -0.5, -0.5), Dir: vm.V(1, 1, 1)}
	got := g.VoxelsOnRay(r, 0, math.Inf(1))
	// Must include the two corner voxels; grid steps one axis at a time
	// so the count is between 2 and 4 for a 2x2x2 grid.
	if len(got) < 2 || len(got) > 4 {
		t.Fatalf("diagonal visited %d voxels: %v", len(got), got)
	}
	first, last := int(got[0]), int(got[len(got)-1])
	if first != g.Index(0, 0, 0) {
		t.Errorf("first voxel %d, want corner", first)
	}
	if last != g.Index(1, 1, 1) {
		t.Errorf("last voxel %d, want far corner", last)
	}
	// Consecutive voxels differ by exactly one axis step.
	for i := 1; i < len(got); i++ {
		ax, ay, az := g.Coords(int(got[i-1]))
		bx, by, bz := g.Coords(int(got[i]))
		d := abs(ax-bx) + abs(ay-by) + abs(az-bz)
		if d != 1 {
			t.Errorf("non-adjacent step %d -> %d", got[i-1], got[i])
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Cross-check the DDA against a brute-force geometric test: a voxel is
// visited iff the ray's AABB-clipped segment overlaps the voxel box.
func TestWalkMatchesBruteForce(t *testing.T) {
	g := unitGrid(t, 6)
	rng := vm.NewRNG(2024)
	for trial := 0; trial < 500; trial++ {
		o := vm.V(rng.InRange(-2, 3), rng.InRange(-2, 3), rng.InRange(-2, 3))
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		if d.Len() < 0.1 {
			continue
		}
		d = d.Norm()
		r := vm.Ray{Origin: o, Dir: d}

		visited := make(map[int]bool)
		for _, idx := range g.VoxelsOnRay(r, 0, math.Inf(1)) {
			visited[int(idx)] = true
		}

		// Brute force: for each voxel, slab-test the ray against a
		// slightly shrunken voxel box (to keep boundary-grazing rays,
		// which may legitimately go either way, out of the comparison).
		for idx := 0; idx < g.NumVoxels(); idx++ {
			ix, iy, iz := g.Coords(idx)
			vb := g.VoxelBounds(ix, iy, iz)
			inner := vm.AABB{
				Min: vb.Min.Add(vm.Splat(1e-7)),
				Max: vb.Max.Sub(vm.Splat(1e-7)),
			}
			iv, hit := inner.IntersectRay(r, 0, math.Inf(1))
			solidHit := hit && iv.Max-iv.Min > 1e-9
			if solidHit && !visited[idx] {
				t.Fatalf("trial %d: DDA missed voxel %d (%d,%d,%d) for ray %+v",
					trial, idx, ix, iy, iz, r)
			}
			if !hit {
				// DDA may visit boundary voxels brute-force misses; only
				// flag clear misses where the outer box is also missed.
				ov, ohit := vb.Pad(1e-7).IntersectRay(r, 0, math.Inf(1))
				if visited[idx] && (!ohit || ov.Max-ov.Min < 0) {
					t.Fatalf("trial %d: DDA visited non-overlapping voxel %d", trial, idx)
				}
			}
		}
	}
}
