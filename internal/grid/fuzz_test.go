package grid

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

// walkReference is Grid.Walk as it stood before Walk and AppendVoxels
// were put on one shared traversal (PR 13, commit 4973cd8), kept as the
// oracle both are fuzzed against: per-voxel Index, coordinate bounds
// checks, math.Min.
func (g *Grid) walkReference(r vm.Ray, tMin, tMax float64, visit func(idx int, tEnter, tLeave float64) bool) {
	iv, hit := g.bounds.IntersectRay(r, tMin, tMax)
	if !hit {
		return
	}
	t := iv.Min
	startT := t + 1e-12*(1+math.Abs(t))
	p := r.At(startT)
	ix, iy, iz, ok := g.VoxelOf(p)
	if !ok {
		p = p.Max(g.bounds.Min).Min(g.bounds.Max)
		ix, iy, iz, ok = g.VoxelOf(p)
		if !ok {
			return
		}
	}
	var step [3]int
	var tDelta, tNext [3]float64
	idxCoord := [3]int{ix, iy, iz}
	dims := [3]int{g.nx, g.ny, g.nz}
	for a := 0; a < 3; a++ {
		d := r.Dir.Axis(a)
		switch {
		case d > 0:
			step[a] = 1
			tDelta[a] = g.cellSize.Axis(a) / d
			boundary := g.bounds.Min.Axis(a) + float64(idxCoord[a]+1)*g.cellSize.Axis(a)
			tNext[a] = (boundary - r.Origin.Axis(a)) / d
		case d < 0:
			step[a] = -1
			tDelta[a] = -g.cellSize.Axis(a) / d
			boundary := g.bounds.Min.Axis(a) + float64(idxCoord[a])*g.cellSize.Axis(a)
			tNext[a] = (boundary - r.Origin.Axis(a)) / d
		default:
			tDelta[a] = math.Inf(1)
			tNext[a] = math.Inf(1)
		}
	}
	tEnter := iv.Min
	for {
		axis := 0
		if tNext[1] < tNext[axis] {
			axis = 1
		}
		if tNext[2] < tNext[axis] {
			axis = 2
		}
		tLeave := math.Min(tNext[axis], iv.Max)
		if !visit(g.Index(idxCoord[0], idxCoord[1], idxCoord[2]), tEnter, tLeave) {
			return
		}
		if tNext[axis] > iv.Max {
			return
		}
		tEnter = tNext[axis]
		tNext[axis] += tDelta[axis]
		idxCoord[axis] += step[axis]
		if idxCoord[axis] < 0 || idxCoord[axis] >= dims[axis] {
			return
		}
	}
}

type visit struct {
	idx            int
	tEnter, tLeave float64
}

// FuzzAppendVoxelsMatchesWalk: on any grid and ray, Walk visits the
// voxels and intervals the reference does, and AppendVoxels appends the
// same indices in the same order after whatever dst already held.
func FuzzAppendVoxelsMatchesWalk(f *testing.F) {
	inf := math.Inf(1)
	// The walk cases of dda_test.go on the unit box, then flat and degenerate
	// boxes, rays along faces and from a corner, finite tMax.
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, -1.0, 0.6, 0.6, 1.0, 0.0, 0.0, inf, uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, 2.0, 0.1, 0.1, -1.0, 0.0, 0.0, inf, uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, 0.6, 0.6, 0.6, 0.0, 1.0, 0.0, inf, uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, -1.0, 5.0, 0.0, 1.0, 0.0, 0.0, inf, uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, -0.5, 0.1, 0.1, 1.0, 0.0, 0.0, 0.76, uint8(0))
	f.Add(uint8(5), uint8(5), uint8(5), 1.0, 1.0, 1.0, -0.3, -0.2, -0.1, 1.0, 0.9, 0.8, inf, uint8(0))
	f.Add(uint8(2), uint8(2), uint8(2), 1.0, 1.0, 1.0, -0.5, -0.5, -0.5, 1.0, 1.0, 1.0, inf, uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), 1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.98, 0.98, 0.98, 1.0, uint8(0))
	f.Add(uint8(32), uint8(26), uint8(26), 8.0, 6.5, 6.5, 4.0, 3.0, 12.0, 0.1, -0.2, -1.0, inf, uint8(0))
	f.Add(uint8(40), uint8(1), uint8(7), 3.0, 0.0, 2.0, -1.0, 0.0, 1.0, 1.0, 0.0, 0.01, inf, uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 2.5, uint8(0))
	f.Add(uint8(6), uint8(6), uint8(6), 1.0, 1.0, 1.0, 0.3, 0.5, 0.7, 1.0, 0.5, 0.25, 0.4, uint8(0x39))
	f.Add(uint8(9), uint8(3), uint8(5), 2.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.3, 0.7, -0.2, inf, uint8(0x03))

	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, sx, sy, sz, ox, oy, oz, dx, dy, dz, tMax float64, snap uint8) {
		size, o, d := [3]float64{sx, sy, sz}, [3]float64{ox, oy, oz}, [3]float64{dx, dy, dz}
		for a := 0; a < 3; a++ {
			// Boxes from flat to 1e6 across, origins within 1e6 of them,
			// direction components zero or representable.
			if !(size[a] >= 0 && size[a] <= 1e6) || !(math.Abs(o[a]) <= 1e6) || !(math.Abs(d[a]) <= 1e6) {
				t.Skip()
			}
			if snap&(1<<a) != 0 {
				d[a] = 0 // axis-parallel
			}
			if snap&(8<<a) != 0 {
				o[a] = size[a] * float64(snap>>6&1) // on a face
			}
		}
		if d == [3]float64{} || math.IsNaN(tMax) {
			t.Skip() // the reference never returns from a zero direction
		}
		g, err := New(vm.NewAABB(vm.V(0, 0, 0), vm.V(size[0], size[1], size[2])), int(nx%40)+1, int(ny%40)+1, int(nz%40)+1)
		if err != nil {
			t.Fatal(err)
		}
		r := vm.Ray{Origin: vm.V(o[0], o[1], o[2]), Dir: vm.V(d[0], d[1], d[2])}

		var want, got []visit
		g.walkReference(r, 0, tMax, func(idx int, tEnter, tLeave float64) bool {
			want = append(want, visit{idx, tEnter, tLeave})
			return len(want) < 1000
		})
		if len(want) == 1000 {
			t.Skip() // NaN boundaries from overflow: the reference circles
		}
		g.Walk(r, 0, tMax, func(idx int, tEnter, tLeave float64) bool {
			got = append(got, visit{idx, tEnter, tLeave})
			return len(got) <= len(want)
		})
		if len(got) != len(want) {
			t.Fatalf("Walk visited %d voxels, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: Walk %+v, reference %+v", i, got[i], want[i])
			}
		}
		dst := g.AppendVoxels([]int32{-7}, r, 0, tMax)
		if dst[0] != -7 || len(dst) != 1+len(want) {
			t.Fatalf("AppendVoxels returned %d entries after the prefix, want %d", len(dst)-1, len(want))
		}
		for i, v := range dst[1:] {
			if int(v) != want[i].idx {
				t.Fatalf("step %d: AppendVoxels %d, Walk %d", i, v, want[i].idx)
			}
		}
	})
}

// FuzzRegistrationRejectIsExact: AppendVoxels' early reject (beyondFace)
// refuses only segments Walk finds no voxel on, and every segment it lets
// through appends exactly the voxels Walk visits. Boxes sit anywhere,
// directions may be axis-parallel, and the segment may run to +Inf or end
// exactly on a face (end picks one of the six; 0 keeps tHit, 1 is +Inf).
func FuzzRegistrationRejectIsExact(f *testing.F) {
	// Misses beyond each face, a ray that runs along a face, segments that
	// stop just short of the box, on it and inside it, an escaping ray that
	// heads away, and a box far from the origin.
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), -1.0, 0.5, 0.5, -1.0, 0.1, 0.0, 3.0, uint8(0), uint8(0))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), 2.0, 0.5, 0.5, 1.0, 0.0, 0.0, 3.0, uint8(1), uint8(0))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), -1.0, 0.5, 0.5, 1.0, 0.0, 0.0, 0.999, uint8(0), uint8(0))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), -1.0, 0.5, 0.5, 1.0, 0.3, 0.1, 0.0, uint8(2), uint8(0))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), 0.5, 2.0, 0.5, 0.2, -1.0, 0.3, 0.0, uint8(5), uint8(0))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), 1.0, 0.5, 0.5, 0.0, 1.0, 0.0, 0.0, uint8(1), uint8(1))
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, uint8(4), 0.5, 0.5, -3.0, 0.1, 0.1, 1.0, 2.9, uint8(0), uint8(0))
	f.Add(-3.1, 0.7, -12.5, 6.2, 1.9, 2.1, uint8(32), 4.0, 3.0, 12.0, 0.1, -0.2, -1.0, 0.0, uint8(6), uint8(0))
	f.Add(1e5, -2e5, 3e5, 0.25, 0.5, 0.125, uint8(7), 0.0, 0.0, 0.0, 1e5, -2e5, 3e5, 1.0000001, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, bx, by, bz, sx, sy, sz float64, res uint8, ox, oy, oz, dx, dy, dz, tHit float64, end, parallel uint8) {
		lo, size := [3]float64{bx, by, bz}, [3]float64{sx, sy, sz}
		o, d := [3]float64{ox, oy, oz}, [3]float64{dx, dy, dz}
		for a := 0; a < 3; a++ {
			// Boxes up to 1e6 across within 1e6 of the origin, rays from
			// there in any representable direction.
			if !(math.Abs(lo[a]) <= 1e6) || !(size[a] >= 0 && size[a] <= 1e6) ||
				!(math.Abs(o[a]) <= 1e6) || !(math.Abs(d[a]) <= 1e6) {
				t.Skip()
			}
			if parallel&(1<<a) != 0 {
				d[a] = 0
			}
		}
		hi := [3]float64{lo[0] + size[0], lo[1] + size[1], lo[2] + size[2]}
		end %= 8
		switch {
		case end == 1:
			tHit = math.Inf(1)
		case end >= 2:
			// The segment ends on face end-2: axis (end-2)/2, low or high.
			a, face := int(end-2)/2, lo[int(end-2)/2]
			if end%2 == 1 {
				face = hi[a]
			}
			if d[a] == 0 {
				t.Skip()
			}
			tHit = (face - o[a]) / d[a]
		}
		if math.IsNaN(tHit) {
			t.Skip()
		}
		n := int(res%40) + 1
		g, err := New(vm.NewAABB(vm.V(lo[0], lo[1], lo[2]), vm.V(hi[0], hi[1], hi[2])), n, n/2+1, n/3+1)
		if err != nil {
			t.Skip() // an empty box
		}
		r := vm.Ray{Origin: vm.V(o[0], o[1], o[2]), Dir: vm.V(d[0], d[1], d[2])}

		var walked []int32
		g.Walk(r, 0, tHit, func(idx int, _, _ float64) bool {
			walked = append(walked, int32(idx))
			return true
		})
		refused := g.beyondFace(&r, tHit)
		if refused && len(walked) > 0 {
			t.Fatalf("refused a segment Walk visits %d voxels on (box %v, ray %+v, tHit %v)", len(walked), g.Bounds(), r, tHit)
		}
		got := g.AppendVoxels([]int32{-7}, r, 0, tHit)
		if got[0] != -7 || len(got) != 1+len(walked) {
			t.Fatalf("AppendVoxels appended %d voxels, Walk visits %d (refused %v)", len(got)-1, len(walked), refused)
		}
		for i, v := range got[1:] {
			if v != walked[i] {
				t.Fatalf("step %d: AppendVoxels %d, Walk %d", i, v, walked[i])
			}
		}
	})
}

// FuzzFillMatchesBoxes: after Fill, every voxel lists exactly the ids
// whose box, clipped to the grid (VoxelRange), covers it, in id order —
// the two-pass offsets and items tables hold what one list per voxel
// would. Boxes are drawn from seed around the unit box, so they miss it,
// cover all of it, sit flat on a face or inside one voxel; skip drops
// every id whose bit (mod 64) is set.
func FuzzFillMatchesBoxes(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint8(12), uint64(1), uint64(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(3), uint64(2), uint64(0))
	f.Add(uint8(9), uint8(3), uint8(5), uint8(40), uint64(3), uint64(0x5555))
	f.Add(uint8(32), uint8(1), uint8(7), uint8(0), uint64(4), uint64(0))
	f.Add(uint8(6), uint8(6), uint8(6), uint8(64), uint64(5), ^uint64(0))

	f.Fuzz(func(t *testing.T, nx, ny, nz, n uint8, seed, skip uint64) {
		g, err := New(vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1)), int(nx%40)+1, int(ny%40)+1, int(nz%40)+1)
		if err != nil {
			t.Fatal(err)
		}
		rng := vm.NewRNG(seed)
		boxes := make([]vm.AABB, n)
		for i := range boxes {
			a := vm.V(rng.InRange(-0.5, 1.5), rng.InRange(-0.5, 1.5), rng.InRange(-0.5, 1.5))
			b := a.Add(vm.V(rng.InRange(0, 0.6), rng.InRange(0, 0.6), rng.InRange(0, 0.6)))
			switch i % 4 {
			case 1:
				b.Y = a.Y // flat
			case 2:
				b = a // a point
			}
			boxes[i] = vm.NewAABB(a, b)
		}
		keep := func(i int) bool { return skip&(1<<(i%64)) == 0 }
		g.Fill(len(boxes), func(i int) (vm.AABB, bool) { return boxes[i], keep(i) })

		want := make([][]int32, g.NumVoxels())
		for i, b := range boxes {
			lo, hi, ok := g.VoxelRange(b)
			if !ok || !keep(i) {
				continue
			}
			for iz := lo[2]; iz <= hi[2]; iz++ {
				for iy := lo[1]; iy <= hi[1]; iy++ {
					for ix := lo[0]; ix <= hi[0]; ix++ {
						v := g.Index(ix, iy, iz)
						want[v] = append(want[v], int32(i))
					}
				}
			}
		}
		for v := range want {
			got := g.Items(v)
			if len(got) != len(want[v]) {
				t.Fatalf("voxel %d lists %v, want %v", v, got, want[v])
			}
			for k := range got {
				if got[k] != want[v][k] {
					t.Fatalf("voxel %d lists %v, want %v", v, got, want[v])
				}
			}
		}
	})
}
