package geom_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"nowrender/internal/geom"
	"nowrender/internal/objfile"
	"nowrender/internal/scenes"
	vm "nowrender/internal/vecmath"
)

// bagOfTriangles is Mesh.IntersectT as it was before the mesh had a
// hierarchy — the mesh's box, then every triangle in index order, a
// nearer t replacing the best only when strictly nearer — kept as the
// definition the hierarchy walk has to reproduce bit for bit. parent maps
// an index in tris to the index the same triangle has in the mesh a view
// was clipped from (nil for a whole mesh).
type bagOfTriangles struct {
	tris   []*geom.Triangle
	bounds vm.AABB
	parent []int32
}

func newBag(tris []*geom.Triangle) *bagOfTriangles {
	b := &bagOfTriangles{tris: tris, bounds: vm.EmptyAABB()}
	for _, tr := range tris {
		b.bounds = b.bounds.Union(tr.Bounds())
	}
	return b
}

// clipBag is what objspace.buildShard used to construct per frame: a new
// mesh over copies of the triangles whose box overlaps the slab.
func clipBag(tris []*geom.Triangle, slab vm.AABB) *bagOfTriangles {
	var kept []*geom.Triangle
	var parent []int32
	for i, tr := range tris {
		if tr.Bounds().Overlaps(slab) {
			kept = append(kept, tr)
			parent = append(parent, int32(i))
		}
	}
	b := newBag(kept)
	b.parent = parent
	return b
}

func (b *bagOfTriangles) IntersectT(r vm.Ray, tMin, tMax float64) (float64, int32, bool) {
	if _, hit := b.bounds.IntersectRay(r, tMin, tMax); !hit {
		return 0, 0, false
	}
	best, part := tMax, int32(-1)
	for i, tr := range b.tris {
		// An open range makes Triangle.IntersectT hand back the raw
		// Möller–Trumbore parameter.
		if t, _, ok := tr.IntersectT(r, math.Inf(-1), math.Inf(1)); ok && t > tMin && t < best {
			best, part = t, int32(i)
		}
	}
	if part >= 0 && b.parent != nil {
		part = b.parent[part]
	}
	return best, part, part >= 0
}

// tied reports whether two triangles of the bag meet r at the same
// nearest t, bit for bit — the case only the index rule decides.
func (b *bagOfTriangles) tied(r vm.Ray, tMin, tMax float64) bool {
	best, ok := 0.0, false
	count := 0
	for _, tr := range b.tris {
		t, _, hit := tr.IntersectT(r, tMin, tMax)
		switch {
		case !hit:
		case !ok || t < best:
			best, ok, count = t, true, 1
		case t == best:
			count++
		}
	}
	return count > 1
}

// checker compares a mesh with its reference ray by ray; sweep aims its
// rays at the box aim and at the vertices and edges of mesh.Tris (for a
// view, the whole mesh's).
type checker struct {
	t     *testing.T
	name  string
	mesh  geom.Shape
	tris  []*geom.Triangle // the triangles the sweep aims at
	ref   *bagOfTriangles
	aim   vm.AABB
	rays  int
	hits  int
	ties  int
	fails int
}

func (c *checker) ray(r vm.Ray, tMin, tMax float64) (float64, bool) {
	c.t.Helper()
	c.rays++
	wt, wp, wok := c.ref.IntersectT(r, tMin, tMax)
	gt, gp, gok := c.mesh.IntersectT(r, tMin, tMax)
	if wok {
		c.hits++
		if c.ref.tied(r, tMin, tMax) {
			c.ties++
		}
	}
	if gok != wok || (wok && (math.Float64bits(gt) != math.Float64bits(wt) || gp != wp)) {
		if c.fails++; c.fails <= 5 {
			c.t.Errorf("%s: ray %+v in (%g, %g): got t=%v part=%d ok=%v, want t=%v part=%d ok=%v",
				c.name, r, tMin, tMax, gt, gp, gok, wt, wp, wok)
		}
	}
	return wt, wok
}

// probe sends r over the open range and then over the ranges that end or
// start exactly at its nearest hit, one ulp either side included.
func (c *checker) probe(r vm.Ray) {
	c.t.Helper()
	t, ok := c.ray(r, vm.Eps, math.Inf(1))
	if !ok {
		return
	}
	c.ray(r, vm.Eps, t)                        // tMax exactly at the hit: excluded
	c.ray(r, vm.Eps, math.Nextafter(t, 2*t+1)) // one ulp later: included
	c.ray(r, t, math.Inf(1))                   // tMin exactly at the hit: the next one
}

// sweep runs every family of rays the issue names against c.
func (c *checker) sweep(rng *vm.RNG, perFamily int) {
	c.t.Helper()
	b, tris := c.aim, c.tris
	centre, reach := b.Center(), b.Size().Len()+1
	inBox := func() vm.Vec3 {
		return vm.V(rng.InRange(b.Min.X, b.Max.X), rng.InRange(b.Min.Y, b.Max.Y), rng.InRange(b.Min.Z, b.Max.Z))
	}
	onSphere := func() vm.Vec3 {
		for {
			v := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
			if l := v.Len(); l > 0.1 && l <= 1 {
				return v.Scale(1 / l)
			}
		}
	}
	vertex := func(tr *geom.Triangle, k int) vm.Vec3 {
		return [3]vm.Vec3{tr.P0, tr.P1, tr.P2}[k%3]
	}
	for i := 0; i < perFamily; i++ {
		// Camera-like: an eye outside the box looking at a point in it.
		eye := centre.Add(onSphere().Scale(reach))
		c.probe(vm.Ray{Origin: eye, Dir: inBox().Sub(eye).Norm()})
		// Starting inside the box, any direction.
		c.probe(vm.Ray{Origin: inBox(), Dir: onSphere()})
		// Axis-parallel, from a point whose coordinates are a vertex's.
		axisDir := [6]vm.Vec3{vm.V(1, 0, 0), vm.V(-1, 0, 0), vm.V(0, 1, 0), vm.V(0, -1, 0), vm.V(0, 0, 1), vm.V(0, 0, -1)}[i%6]
		o := inBox()
		if len(tris) > 0 {
			o = vertex(tris[rng.Intn(len(tris))], i)
		}
		c.probe(vm.Ray{Origin: o.Sub(axisDir.Scale(reach)), Dir: axisDir})
		c.probe(vm.Ray{Origin: o, Dir: axisDir})
		if len(tris) == 0 {
			continue
		}
		// Aimed exactly at a vertex the lattice's triangles share, with a
		// unit and a raw direction; and straight down onto it.
		tr := tris[rng.Intn(len(tris))]
		v := vertex(tr, i)
		c.probe(vm.Ray{Origin: eye, Dir: v.Sub(eye).Norm()})
		c.probe(vm.Ray{Origin: eye, Dir: v.Sub(eye)})
		c.probe(vm.Ray{Origin: v.Add(vm.V(0, reach, 0)), Dir: vm.V(0, -1, 0)})
		// Along a shared edge, and onto a point of it from outside.
		e0, e1 := vertex(tr, i), vertex(tr, i+1)
		along := e1.Sub(e0)
		c.probe(vm.Ray{Origin: e0.Sub(along.Scale(2)), Dir: along})
		c.probe(vm.Ray{Origin: e0.Sub(along.Scale(2)), Dir: along.Norm()})
		onEdge := e0.Add(along.Scale(0.5))
		c.probe(vm.Ray{Origin: eye, Dir: onEdge.Sub(eye).Norm()})
		c.probe(vm.Ray{Origin: onEdge.Add(vm.V(0, reach, 0)), Dir: vm.V(0, -1, 0)})
	}
}

// smoothSphere parses a UV sphere with vertex normals out of OBJ text.
func smoothSphere(t *testing.T, stacks, slices int) *geom.Mesh {
	t.Helper()
	var sb strings.Builder
	at := func(i, j int) int { return i*(slices+1) + j + 1 }
	for i := 0; i <= stacks; i++ {
		for j := 0; j <= slices; j++ {
			th, ph := math.Pi*float64(i)/float64(stacks), 2*math.Pi*float64(j)/float64(slices)
			n := vm.V(math.Sin(th)*math.Cos(ph), math.Cos(th), math.Sin(th)*math.Sin(ph))
			p := n.Scale(1.5).Add(vm.V(0.3, 2, -1))
			fmt.Fprintf(&sb, "v %.17g %.17g %.17g\nvn %.17g %.17g %.17g\n", p.X, p.Y, p.Z, n.X, n.Y, n.Z)
		}
	}
	for i := 0; i < stacks; i++ {
		for j := 0; j < slices; j++ {
			a, b, c, d := at(i, j), at(i, j+1), at(i+1, j+1), at(i+1, j)
			if i > 0 {
				fmt.Fprintf(&sb, "f %d//%d %d//%d %d//%d\n", a, a, b, b, c, c)
			}
			if i < stacks-1 {
				fmt.Fprintf(&sb, "f %d//%d %d//%d %d//%d\n", a, a, c, c, d, d)
			}
		}
	}
	m, err := objfile.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tris[0].N0 == nil {
		t.Fatal("sphere parsed without vertex normals")
	}
	return m
}

func soup(rng *vm.RNG, n int, extent, size float64) []*geom.Triangle {
	tris := make([]*geom.Triangle, n)
	for i := range tris {
		c := vm.V(rng.InRange(-extent, extent), rng.InRange(-extent, extent), rng.InRange(-extent, extent))
		off := func() vm.Vec3 {
			return vm.V(rng.InRange(-size, size), rng.InRange(-size, size), rng.InRange(-size, size))
		}
		tris[i] = geom.NewTriangle(c.Add(off()), c.Add(off()), c.Add(off()))
	}
	return tris
}

// TestMeshIntersectMatchesExhaustive is the hierarchy's contract: the
// same t to the bit, the same part and the same ok as the exhaustive
// loop, on every family of rays the tracer or a test scene can produce.
func TestMeshIntersectMatchesExhaustive(t *testing.T) {
	rng := vm.NewRNG(22)
	meshes := map[string]*geom.Mesh{
		"gallery tile":  scenes.MeshGalleryTile(),
		"smooth sphere": smoothSphere(t, 12, 16),
		"soup 60":       geom.NewMesh(soup(rng, 60, 2, 0.8)),
		"soup 700":      geom.NewMesh(soup(rng, 700, 5, 0.5)),
		"big overlaps":  geom.NewMesh(soup(rng, 90, 1, 3)),
	}
	total, ties := 0, 0
	for name, m := range meshes {
		c := &checker{t: t, name: name, mesh: m, tris: m.Tris, ref: newBag(m.Tris), aim: m.Bounds()}
		c.sweep(vm.NewRNG(160), 160) // a fresh stream: map order must not move the rays
		if c.hits == 0 || c.hits == c.rays {
			t.Errorf("%s: %d of %d rays hit — the sweep proves nothing", name, c.hits, c.rays)
		}
		if m.NumTris() != len(m.Tris) {
			t.Errorf("%s: NumTris %d, want %d", name, m.NumTris(), len(m.Tris))
		}
		if m.Bounds() != c.ref.bounds {
			t.Errorf("%s: Bounds %v, want %v", name, m.Bounds(), c.ref.bounds)
		}
		total += c.rays
		if name == "gallery tile" {
			ties = c.ties
		}
	}
	if total < 20000 {
		t.Errorf("%d rays compared, want at least 20000", total)
	}
	if ties == 0 {
		t.Error("no ray met two lattice triangles at the same t: the tie rule went untested")
	}
	t.Logf("%d rays, %d of them tied on the tile", total, ties)
}

// TestMeshDegenerateInputs covers the shapes a median split could trip
// on: nothing to split, exactly a leaf, one more than a leaf, nothing to
// split *by*, and a mesh deep enough to matter to the fixed stack.
func TestMeshDegenerateInputs(t *testing.T) {
	rng := vm.NewRNG(7)
	one := geom.NewTriangle(vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 0, 1))
	same := make([]*geom.Triangle, 100)
	for i := range same {
		same[i] = one
	}
	// Coincident centroids without coincident triangles: each is the
	// first turned about their common centroid.
	var pinwheel []*geom.Triangle
	for i := 0; i < 64; i++ {
		a := 2 * math.Pi * float64(i) / 64
		arm := func(k float64) vm.Vec3 {
			return vm.V(math.Cos(a+k), 0.01*float64(i%3), math.Sin(a+k))
		}
		pinwheel = append(pinwheel, geom.NewTriangle(arm(0), arm(2*math.Pi/3), arm(4*math.Pi/3)))
	}
	slivers := make([]*geom.Triangle, 10000)
	for i := range slivers {
		y := 1e-3 * float64(i)
		slivers[i] = geom.NewTriangle(vm.V(0, y, 0), vm.V(50, y, 1e-4), vm.V(50, y+1e-5, -1e-4))
	}
	cases := []struct {
		name string
		tris []*geom.Triangle
		rays int
	}{
		{"empty", nil, 20},
		{"one", []*geom.Triangle{one}, 60},
		{"leaf", soup(rng, 4, 1, 1), 60},
		{"leaf+1", soup(rng, 5, 1, 1), 60},
		{"2 leaves+1", soup(rng, 9, 1, 1), 60},
		{"identical x100", same, 60},
		{"coincident centroids", pinwheel, 60},
		{"10k slivers", slivers, 12},
	}
	for _, tc := range cases {
		m := geom.NewMesh(tc.tris)
		c := &checker{t: t, name: tc.name, mesh: m, tris: m.Tris, ref: newBag(tc.tris), aim: m.Bounds()}
		if len(tc.tris) == 0 {
			c.aim = vm.NewAABB(vm.V(-1, -1, -1), vm.V(1, 1, 1))
		}
		c.sweep(vm.NewRNG(3), tc.rays)
		if len(tc.tris) > 0 && c.hits == 0 {
			t.Errorf("%s: no ray hit", tc.name)
		}
	}
	// A hundred copies of one triangle all tie: index 0 wins.
	m := geom.NewMesh(same)
	if _, part, ok := m.IntersectT(vm.Ray{Origin: vm.V(0.2, 1, 0.2), Dir: vm.V(0, -1, 0)}, vm.Eps, math.Inf(1)); !ok || part != 0 {
		t.Errorf("identical triangles: part %d ok %v, want part 0", part, ok)
	}
	if empty := geom.NewMesh(nil); !empty.Bounds().IsEmpty() || empty.NumTris() != 0 {
		t.Errorf("empty mesh: bounds %v, %d triangles", empty.Bounds(), empty.NumTris())
	}
}

// TestMeshClipIsTheClippedMesh pins what a view stands for: the mesh the
// shard builder used to make from copies of the triangles whose box
// overlaps the slab — its rays, its Bounds and its count — for slabs
// that keep everything, something and nothing.
func TestMeshClipIsTheClippedMesh(t *testing.T) {
	rng := vm.NewRNG(5)
	slabsOf := func(m *geom.Mesh) map[string]vm.AABB {
		b := m.Bounds()
		mid := b.Center()
		column := m.Tris[40].P1.X // on the tile, a slab face exactly on a column of vertices
		return map[string]vm.AABB{
			"all":          b.Pad(1),
			"exactly all":  b,
			"low x half":   {Min: b.Min, Max: b.Max.SetAxis(0, mid.X)},
			"high x half":  {Min: b.Min.SetAxis(0, mid.X), Max: b.Max},
			"lattice face": {Min: b.Min.SetAxis(0, column), Max: b.Max},
			"thin z slice": {Min: b.Min.SetAxis(2, mid.Z-0.01), Max: b.Max.SetAxis(2, mid.Z+0.01)},
			"a corner":     {Min: b.Min, Max: mid},
			"none":         vm.NewAABB(vm.V(10, 10, 10), vm.V(11, 11, 11)),
			"below":        {Min: b.Min.Sub(vm.V(0, 5, 0)), Max: b.Max.SetAxis(1, b.Min.Y-1)},
		}
	}
	meshes := map[string]*geom.Mesh{
		"tile": scenes.MeshGalleryTile(),
		"soup": geom.NewMesh(soup(rng, 300, 0.5, 0.2)),
	}
	for mname, m := range meshes {
		for sname, slab := range slabsOf(m) {
			name := mname + "/" + sname
			ref := clipBag(m.Tris, slab)
			view := m.Clip(slab)
			if view.NumTris() != len(ref.tris) {
				t.Errorf("%s: view keeps %d triangles, want %d", name, view.NumTris(), len(ref.tris))
			}
			if view.Bounds() != ref.bounds {
				t.Errorf("%s: view bounds %v, want %v", name, view.Bounds(), ref.bounds)
			}
			switch sname {
			case "all", "exactly all":
				if len(ref.tris) != len(m.Tris) {
					t.Errorf("%s keeps %d of %d", name, len(ref.tris), len(m.Tris))
				}
			case "none", "below":
				if len(ref.tris) != 0 {
					t.Errorf("%s keeps %d", name, len(ref.tris))
				}
			default:
				if len(ref.tris) == 0 || len(ref.tris) == len(m.Tris) {
					t.Errorf("%s keeps %d of %d: not a partial clip", name, len(ref.tris), len(m.Tris))
				}
			}
			// The sweep aims at the whole mesh, so it also sends rays
			// through the triangles the view dropped.
			c := &checker{t: t, name: name, mesh: &view, tris: m.Tris, ref: ref, aim: m.Bounds()}
			c.sweep(vm.NewRNG(25), 25)
		}
		if m.NumTris() != len(m.Tris) {
			t.Errorf("%s: clipping changed the mesh it was clipped from", mname)
		}
	}
}

// TestMeshSharedAcrossGoroutines intersects one mesh and two of its views
// from several goroutines at once; under -race it shows the hierarchy and
// the boxes are only ever read.
func TestMeshSharedAcrossGoroutines(t *testing.T) {
	tile := scenes.MeshGalleryTile()
	b := tile.Bounds()
	low := tile.Clip(vm.AABB{Min: b.Min, Max: b.Max.SetAxis(0, 0.5)})
	high := tile.Clip(vm.AABB{Min: b.Min.SetAxis(0, 0.5), Max: b.Max})
	shared := []geom.Shape{tile, &low, &high}
	refs := []*bagOfTriangles{
		newBag(tile.Tris),
		clipBag(tile.Tris, vm.AABB{Min: b.Min, Max: b.Max.SetAxis(0, 0.5)}),
		clipBag(tile.Tris, vm.AABB{Min: b.Min.SetAxis(0, 0.5), Max: b.Max}),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := vm.NewRNG(seed)
			for i := 0; i < 300; i++ {
				eye := vm.V(rng.InRange(-1, 2), rng.InRange(1, 3), rng.InRange(-1, 2))
				r := vm.Ray{Origin: eye, Dir: vm.V(rng.Float64(), 0.2, rng.Float64()).Sub(eye).Norm()}
				for k, m := range shared {
					wt, wp, wok := refs[k].IntersectT(r, vm.Eps, math.Inf(1))
					if gt, gp, gok := m.IntersectT(r, vm.Eps, math.Inf(1)); gok != wok || (wok && (gt != wt || gp != wp)) {
						t.Errorf("mesh %d: got %v %d %v, want %v %d %v", k, gt, gp, gok, wt, wp, wok)
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}
