package grid

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

func unitGrid(t *testing.T, n int) *Grid {
	t.Helper()
	g, err := New(vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1)), n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsEmptyBounds(t *testing.T) {
	if _, err := New(vm.EmptyAABB(), 4, 4, 4); err == nil {
		t.Error("empty bounds accepted")
	}
}

func TestNewClampsCounts(t *testing.T) {
	g, err := New(vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1)), 0, -3, 5)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := g.Dims()
	if nx != 1 || ny != 1 || nz != 5 {
		t.Errorf("dims = %d,%d,%d", nx, ny, nz)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g, _ := New(vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1)), 3, 4, 5)
	for iz := 0; iz < 5; iz++ {
		for iy := 0; iy < 4; iy++ {
			for ix := 0; ix < 3; ix++ {
				idx := g.Index(ix, iy, iz)
				gx, gy, gz := g.Coords(idx)
				if gx != ix || gy != iy || gz != iz {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)",
						ix, iy, iz, idx, gx, gy, gz)
				}
			}
		}
	}
	if g.NumVoxels() != 60 {
		t.Errorf("NumVoxels = %d", g.NumVoxels())
	}
}

func TestVoxelOf(t *testing.T) {
	g := unitGrid(t, 4)
	ix, iy, iz, ok := g.VoxelOf(vm.V(0.1, 0.6, 0.9))
	if !ok || ix != 0 || iy != 2 || iz != 3 {
		t.Errorf("VoxelOf = %d,%d,%d ok=%v", ix, iy, iz, ok)
	}
	// Boundary point clamps into the last voxel.
	ix, iy, iz, ok = g.VoxelOf(vm.V(1, 1, 1))
	if !ok || ix != 3 || iy != 3 || iz != 3 {
		t.Errorf("boundary VoxelOf = %d,%d,%d ok=%v", ix, iy, iz, ok)
	}
	if _, _, _, ok = g.VoxelOf(vm.V(2, 0, 0)); ok {
		t.Error("outside point reported inside")
	}
}

func TestVoxelBounds(t *testing.T) {
	g := unitGrid(t, 4)
	b := g.VoxelBounds(1, 2, 3)
	want := vm.NewAABB(vm.V(0.25, 0.5, 0.75), vm.V(0.5, 0.75, 1))
	if !b.Min.ApproxEq(want.Min, 1e-12) || !b.Max.ApproxEq(want.Max, 1e-12) {
		t.Errorf("VoxelBounds = %v", b)
	}
}

// fillOne fills g with the single item 0 over box b.
func fillOne(g *Grid, b vm.AABB) {
	g.Fill(1, func(int) (vm.AABB, bool) { return b, true })
}

func TestFillAndItems(t *testing.T) {
	g := unitGrid(t, 4)
	// Item 1 covers the low corner 2x2x2 voxels; item 0 is skipped.
	low := vm.NewAABB(vm.V(0, 0, 0), vm.V(0.49, 0.49, 0.49))
	g.Fill(2, func(i int) (vm.AABB, bool) { return low, i == 1 })
	count := 0
	for idx := 0; idx < g.NumVoxels(); idx++ {
		for _, id := range g.Items(idx) {
			if id != 1 {
				t.Fatalf("voxel %d lists skipped item %d", idx, id)
			}
			count++
		}
	}
	if count != 8 {
		t.Errorf("filled into %d voxels, want 8", count)
	}
}

func TestFillOutsideIgnored(t *testing.T) {
	g := unitGrid(t, 4)
	fillOne(g, vm.NewAABB(vm.V(5, 5, 5), vm.V(6, 6, 6)))
	for idx := 0; idx < g.NumVoxels(); idx++ {
		if len(g.Items(idx)) != 0 {
			t.Fatal("outside box registered in grid")
		}
	}
}

func TestFillClipped(t *testing.T) {
	g := unitGrid(t, 4)
	// Box overlapping the whole grid and beyond: lands in all 64 voxels.
	fillOne(g, vm.NewAABB(vm.V(-10, -10, -10), vm.V(10, 10, 10)))
	for idx := 0; idx < g.NumVoxels(); idx++ {
		if len(g.Items(idx)) != 1 {
			t.Fatalf("voxel %d has %d items", idx, len(g.Items(idx)))
		}
	}
}

func TestAutoResolution(t *testing.T) {
	b := vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1))
	nx, ny, nz := AutoResolution(b, 22)
	if nx < 1 || nx > 64 || nx != ny || ny != nz {
		t.Errorf("cube scene resolution %d,%d,%d", nx, ny, nz)
	}
	// Anisotropic scene gets anisotropic grid.
	long := vm.NewAABB(vm.V(0, 0, 0), vm.V(10, 1, 1))
	nx, ny, nz = AutoResolution(long, 22)
	if nx <= ny {
		t.Errorf("long axis did not get more voxels: %d,%d,%d", nx, ny, nz)
	}
	// Degenerate inputs survive.
	nx, ny, nz = AutoResolution(b, 0)
	if nx < 1 || ny < 1 || nz < 1 {
		t.Error("zero items broke resolution")
	}
}

func TestFlatSceneGrid(t *testing.T) {
	// A zero-thickness bounds region must not divide by zero.
	b := vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 0, 1))
	g, err := New(b, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.CellSize().Y <= 0 {
		t.Error("flat grid has non-positive cell size")
	}
	// A DDA walk along the plane should not hang or panic.
	n := 0
	g.Walk(vm.Ray{Origin: vm.V(-1, 0, 0.5), Dir: vm.V(1, 0, 0)}, 0, math.Inf(1),
		func(int, float64, float64) bool { n++; return n < 10000 })
	if n >= 10000 {
		t.Error("walk on flat grid did not terminate")
	}
}
