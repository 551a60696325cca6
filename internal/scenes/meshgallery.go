package scenes

import (
	"fmt"
	"math"

	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// MeshGalleryFrames is the default length of the mesh-gallery animation.
const MeshGalleryFrames = 36

// meshTileN is the heightfield lattice size of the procedural tile; the
// tile triangulates to 2*(meshTileN-1)^2 triangles.
const meshTileN = 14

// MeshGalleryTile procedurally generates the gallery's exhibit model: a
// deterministic heightfield relief over the unit square, triangulated
// into 2*(N-1)^2 flat triangles. The same generator backs the committed
// scenes/gallery-tile.obj (via objfile.Write), so the builtin scene and
// the OBJ-loading example render identical geometry.
func MeshGalleryTile() *geom.Mesh {
	n := meshTileN
	rng := vm.NewRNG(0x6d657368) // "mesh": fixed so the tile never drifts
	h := make([]float64, n*n)
	for i := range h {
		h[i] = 0.35 * rng.Float64()
	}
	// Two smoothing passes turn white noise into rolling relief without
	// losing determinism.
	for pass := 0; pass < 2; pass++ {
		sm := make([]float64, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				sum, cnt := 0.0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						xx, yy := x+dx, y+dy
						if xx < 0 || xx >= n || yy < 0 || yy >= n {
							continue
						}
						sum += h[yy*n+xx]
						cnt++
					}
				}
				sm[y*n+x] = sum / float64(cnt)
			}
		}
		h = sm
	}
	// A central dome lifts the relief off the pedestal.
	at := func(x, y int) vm.Vec3 {
		u := float64(x) / float64(n-1)
		v := float64(y) / float64(n-1)
		du, dv := u-0.5, v-0.5
		dome := 0.45 * math.Max(0, 1-4*(du*du+dv*dv))
		return vm.V(u, h[y*n+x]+dome, v)
	}
	tris := make([]*geom.Triangle, 0, 2*(n-1)*(n-1))
	for y := 0; y+1 < n; y++ {
		for x := 0; x+1 < n; x++ {
			p00, p10 := at(x, y), at(x+1, y)
			p01, p11 := at(x, y+1), at(x+1, y+1)
			tris = append(tris,
				geom.NewTriangle(p00, p10, p11),
				geom.NewTriangle(p00, p11, p01))
		}
	}
	return geom.NewMesh(tris)
}

// MeshGallery builds the large-mesh stress scene from the procedural
// tile: see MeshGalleryFrom.
func MeshGallery(frames int) *scene.Scene {
	return MeshGalleryFrom(MeshGalleryTile(), frames)
}

// MeshGalleryFrom builds the object-space stress scene around a source
// mesh: a 3x3 gallery of pedestals, each exhibiting its own *baked*
// instance of the mesh (vertices transformed at build time, not via a
// shared Transformed wrapper), so the global triangle count really is
// nine tiles' worth and a spatial shard holds only the instances — and,
// within an instance, only the triangles — overlapping its slab. An
// orbiting glass ball keeps secondary rays busy. The camera dollies every
// frame, so every frame is a camera cut and no run of it can use frame
// coherence.
func MeshGalleryFrom(tile *geom.Mesh, frames int) *scene.Scene {
	if frames <= 0 {
		frames = MeshGalleryFrames
	}
	s := scene.New("meshgallery")
	s.Frames = frames
	s.Background = material.RGB(0.04, 0.045, 0.08)
	s.MaxDepth = 5
	s.AddLight("key", vm.V(-3, 9, 7), material.RGB(1, 0.97, 0.9))
	s.AddLight("fill", vm.V(7, 5, 10), material.RGB(0.22, 0.24, 0.3))

	// Dolly from left to right across the gallery front.
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		t := 0.0
		if frames > 1 {
			t = float64(f) / float64(frames-1)
		}
		return scene.Camera{
			Pos:    vm.V(-5+10*t, 3.2, 9.5),
			LookAt: vm.V(0, 1.0, -1),
			Up:     vm.V(0, 1, 0),
			FOV:    52,
		}
	})

	floorMat := material.NewMaterial(
		material.Checker{A: material.RGB(0.75, 0.74, 0.7), B: material.RGB(0.22, 0.22, 0.26), Size: 1.4},
		material.Finish{Ambient: 0.1, Diffuse: 0.7, Specular: 0.08, Shininess: 18, Reflect: 0.05, IOR: 1},
	)
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floorMat, nil)

	stone := material.NewMaterial(material.Solid{C: material.RGB(0.58, 0.58, 0.6)},
		material.Finish{Ambient: 0.12, Diffuse: 0.75, Specular: 0.1, Shininess: 22, IOR: 1})
	exhibits := [3]material.Material{
		material.NewMaterial(material.Solid{C: material.RGB(0.8, 0.45, 0.2)},
			material.Finish{Ambient: 0.1, Diffuse: 0.7, Specular: 0.3, Shininess: 40, IOR: 1}),
		material.NewMaterial(material.Solid{C: material.RGB(0.25, 0.55, 0.8)},
			material.Finish{Ambient: 0.1, Diffuse: 0.65, Specular: 0.35, Shininess: 55, Reflect: 0.1, IOR: 1}),
		material.NewMaterial(material.Solid{C: material.RGB(0.45, 0.75, 0.4)},
			material.Finish{Ambient: 0.1, Diffuse: 0.7, Specular: 0.25, Shininess: 35, IOR: 1}),
	}

	// 3x3 instance grid: bake each instance's scale+translation into its
	// triangle vertices.
	idx := 0
	for iz := 0; iz < 3; iz++ {
		for ix := 0; ix < 3; ix++ {
			x := -4.0 + 4.0*float64(ix)
			z := -4.0 + 2.6*float64(iz)
			s.Add(fmt.Sprintf("pedestal%d", idx),
				geom.NewBox(vm.V(x-0.9, 0, z-0.9), vm.V(x+0.9, 0.8, z+0.9)), stone, nil)
			s.Add(fmt.Sprintf("tile%d", idx),
				bakeMesh(tile, 1.6, vm.V(x-0.8, 0.8, z-0.8)),
				exhibits[idx%len(exhibits)], nil)
			idx++
		}
	}

	// Orbiting glass ball: secondary rays crossing shard boundaries every
	// frame.
	glass := material.NewMaterial(material.Solid{C: material.RGB(0.97, 0.99, 1)}, material.GlassFinish())
	s.Add("orbiter", geom.NewSphere(vm.V(0, 0, 0), 0.4), glass,
		scene.FuncTrack{F: func(f int) vm.Transform {
			ang := 2 * math.Pi * float64(f) / float64(frames)
			p := vm.V(3.2*math.Cos(ang), 2.0+0.4*math.Sin(2*ang), -1.4+2.2*math.Sin(ang))
			return vm.NewTransform(vm.TranslateV(p))
		}})
	return s
}

// bakeMesh returns a copy of m with scale then translation applied to
// every vertex (normals, being direction-only, survive uniform scaling
// and translation unchanged).
func bakeMesh(m *geom.Mesh, scale float64, offset vm.Vec3) *geom.Mesh {
	out := make([]*geom.Triangle, len(m.Tris))
	for i, tr := range m.Tris {
		nt := &geom.Triangle{
			P0: tr.P0.Scale(scale).Add(offset),
			P1: tr.P1.Scale(scale).Add(offset),
			P2: tr.P2.Scale(scale).Add(offset),
			N0: tr.N0, N1: tr.N1, N2: tr.N2,
		}
		out[i] = nt
	}
	return geom.NewMesh(out)
}
