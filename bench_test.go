// Kernel benchmarks: the pieces too small to be a layer of the wall-clock
// ledger, kept because a perf PR pairs them against its parent before it
// spends a bench/ run (EXPERIMENTS.md quotes them by name).
//
// They are not the repo's benchmark and not the paper's tables. Wall-clock
// numbers per layer and end to end are bench/ (`bash bench/run.sh`,
// BENCHMARK.json); Table 1, the figures, the ablations and the scaling
// sweep on the virtual NOW are cmd/benchtab; bytes and orderings that do
// not depend on the clock are assertions in ordinary tests. DESIGN.md §4
// has the table of which question each instrument answers.
package nowrender_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nowrender"
	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/objfile"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

const (
	benchW, benchH = 60, 80
	benchFrames    = 12
)

func benchScene() *nowrender.Scene { return scenes.Newton(benchFrames) }

// --- The render core --------------------------------------------------

// BenchmarkFigure5_NewtonFrame renders frame 22 of the Newton animation
// (the paper's Figure 5).
func BenchmarkFigure5_NewtonFrame(b *testing.B) {
	sc := scenes.Newton(45)
	for i := 0; i < b.N; i++ {
		ft, err := trace.New(sc, 22, trace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		img := fb.New(benchW, benchH)
		ft.RenderFull(img)
	}
}

// BenchmarkTracer_PrimaryRays measures raw single-frame tracing.
func BenchmarkTracer_PrimaryRays(b *testing.B) {
	sc := benchScene()
	ft, err := trace.New(sc, 0, trace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img := fb.New(benchW, benchH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.RenderFull(img)
	}
	b.ReportMetric(float64(benchW*benchH), "pixels/op")
}

// BenchmarkRenderFrameParallel measures the intra-frame tile pool at
// 1/2/4/8 threads on a full bench-scene frame. On a multicore host the
// speedup should approach the thread count (up to the core count).
func BenchmarkRenderFrameParallel(b *testing.B) {
	sc := benchScene()
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			ft, err := trace.New(sc, 0, trace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			img := fb.New(benchW, benchH)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.RenderRegionParallel(img, img.Bounds(), threads)
			}
			b.ReportMetric(float64(benchW*benchH), "pixels/op")
		})
	}
}

// BenchmarkCoherentFrameParallel measures the coherence engine's tile
// pool over a short frame run (registration + change detection + tiled
// re-render) at the same thread counts.
func BenchmarkCoherentFrameParallel(b *testing.B) {
	sc := benchScene()
	full := fb.NewRect(0, 0, benchW, benchH)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := coherence.NewEngine(sc, benchW, benchH, full, 0, sc.Frames,
					coherence.Options{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				img := fb.New(benchW, benchH)
				for f := 0; f < 4; f++ {
					if _, err := eng.RenderFrame(f, img); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBlockEnginesOneWorker is what frame division gives one worker
// on the ledger's Newton workload: twelve 40x40 block engines, each
// through the same 60 frames at 120x160, back to back on one goroutine —
// no master, no wire. "shared" makes them from one coherence.Range, as the
// worker loop does; "private" gives each its own (coherence.NewEngine),
// which rebuilds every frame's tracer, the motion grid and the movers'
// voxels per block. Run with -benchmem: the gap in B/op is the 720 - 60
// tracers.
func BenchmarkBlockEnginesOneWorker(b *testing.B) {
	const w, h, frames = 120, 160, 60
	sc := scenes.Newton(frames)
	blocks := fb.NewRect(0, 0, w, h).Blocks(40, 40)
	opts := coherence.Options{Threads: 1}
	for _, mode := range []string{"shared", "private"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			img := fb.New(w, h)
			for i := 0; i < b.N; i++ {
				var r *coherence.Range
				for _, region := range blocks {
					var eng *coherence.Engine
					var err error
					if mode == "private" {
						eng, err = coherence.NewEngine(sc, w, h, region, 0, frames, opts)
					} else {
						if r == nil {
							if r, err = coherence.NewRange(sc, 0, frames, opts); err != nil {
								b.Fatal(err)
							}
						}
						eng, err = r.NewEngine(w, h, region, opts)
					}
					if err != nil {
						b.Fatal(err)
					}
					for f := 0; f < frames; f++ {
						if _, err := eng.RenderFrame(f, img); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkGrid_DDAWalk measures the 3D-DDA voxel traversal.
func BenchmarkGrid_DDAWalk(b *testing.B) {
	g, err := grid.New(vm.NewAABB(vm.V(0, 0, 0), vm.V(1, 1, 1)), 32, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	r := vm.Ray{Origin: vm.V(-0.1, -0.2, -0.3), Dir: vm.V(1, 0.9, 0.8).Norm()}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		g.Walk(r, 0, 1e18, func(int, float64, float64) bool { n++; return true })
	}
	if n == 0 {
		b.Fatal("walk visited nothing")
	}
}

// BenchmarkCoherence_ChangeDetection isolates the per-frame change scan
// (find changed voxels + collect dirty pixels).
func BenchmarkCoherence_ChangeDetection(b *testing.B) {
	sc := benchScene()
	full := fb.NewRect(0, 0, benchW, benchH)
	eng, err := coherence.NewEngine(sc, benchW, benchH, full, 0, sc.Frames, coherence.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img := fb.New(benchW, benchH)
	if _, err := eng.RenderFrame(0, img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// Steady-state frames exercise registration + change detection.
	f := 1
	for i := 0; i < b.N; i++ {
		if f >= sc.Frames {
			b.StopTimer()
			eng, err = coherence.NewEngine(sc, benchW, benchH, full, 0, sc.Frames, coherence.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.RenderFrame(0, img); err != nil {
				b.Fatal(err)
			}
			f = 1
			b.StartTimer()
		}
		if _, err := eng.RenderFrame(f, img); err != nil {
			b.Fatal(err)
		}
		f++
	}
}

// BenchmarkCoherence_FirstFrame is newton-fc's first frame at the ledger's
// size and seed-1 window (frames [1, 61) of newton:90 at 120x160, one
// thread): NewEngine, then RenderFrame of frame 1 — the scene checks, the
// motion grid, the tracer and the frame with every registration. Paired
// with BenchmarkCoherence_FirstFramePlain, which renders the same frame
// without coherence, it is first_frame_overhead_pct without a ledger run
// (run with -benchmem; the B/op gap is the engine's).
func BenchmarkCoherence_FirstFrame(b *testing.B) {
	const w, h = 120, 160
	sc := scenes.Newton(90)
	full := fb.NewRect(0, 0, w, h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := coherence.NewEngine(sc, w, h, full, 1, 61, coherence.Options{Threads: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RenderFrame(1, fb.New(w, h)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoherence_FirstFramePlain is BenchmarkCoherence_FirstFrame's
// frame through the plain tracer: trace.New and every pixel, as
// newton-plain renders it.
func BenchmarkCoherence_FirstFramePlain(b *testing.B) {
	const w, h = 120, 160
	sc := scenes.Newton(90)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft, err := trace.New(sc, 1, trace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ft.RenderFull(fb.New(w, h))
	}
}

// BenchmarkFarm_LocalProtocol measures the full wall-clock goroutine
// farm on a small animation.
func BenchmarkFarm_LocalProtocol(b *testing.B) {
	sc := scenes.Newton(4)
	for i := 0; i < b.N; i++ {
		if _, err := farm.RenderLocal(farm.Config{
			Scene: sc, W: 40, H: 52, Coherence: true, Workers: 3,
			Scheme: partition.Scheme{BlockW: 20, BlockH: 26, Adaptive: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks (geometry & IO) -----------------------

// BenchmarkGeom_TorusIntersect measures the quartic candidate test.
func BenchmarkGeom_TorusIntersect(b *testing.B) {
	to := nowrender.NewTorus(2, 0.5)
	r := vm.Ray{Origin: vm.V(-5, 0.2, 0.1), Dir: vm.V(1, 0, 0)}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, _, ok := to.IntersectT(r, 0, 1e18); ok {
			hits++
		}
	}
	if hits == 0 {
		b.Fatal("no hits")
	}
}

// BenchmarkGeom_SphereIntersect is the baseline quadratic candidate test.
func BenchmarkGeom_SphereIntersect(b *testing.B) {
	s := nowrender.NewSphere(vm.V(0, 0, 0), 1)
	r := vm.Ray{Origin: vm.V(-5, 0.2, 0.1), Dir: vm.V(1, 0, 0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IntersectT(r, 0, 1e18)
	}
}

// BenchmarkGeom_CylinderIntersectT is the candidate test of Newton's
// dominant primitive — the per-ray kernel's micro-number next to the
// ledger's trace.mrays_per_s.
func BenchmarkGeom_CylinderIntersectT(b *testing.B) {
	c := nowrender.NewCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	for _, bc := range []struct {
		name string
		ray  vm.Ray
		hit  bool
	}{
		{"miss", vm.Ray{Origin: vm.V(-5, 1, 2), Dir: vm.V(1, 0, 0)}, false},
		{"lateral", vm.Ray{Origin: vm.V(-5, 1, 0.1), Dir: vm.V(1, 0, 0)}, true},
		{"cap", vm.Ray{Origin: vm.V(0.1, 5, 0.1), Dir: vm.V(0, -1, 0)}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := c.IntersectT(bc.ray, 0, 1e18); ok != bc.hit {
					b.Fatalf("hit = %v, want %v", ok, bc.hit)
				}
			}
		})
	}
}

// rayLog records the rays of a render with the range the tracer
// intersects each over (a shadow ray's observed parameter is its light's
// distance).
type rayLog struct {
	rays       []vm.Ray
	tMin, tMax []float64
}

func (l *rayLog) ObserveRay(r vm.Ray, tHit float64) {
	tMax := math.Inf(1)
	if r.Kind == vm.ShadowRay {
		tMax = tHit - vm.ShadowEps
	}
	l.rays = append(l.rays, r)
	l.tMin = append(l.tMin, vm.ShadowEps)
	l.tMax = append(l.tMax, tMax)
}

// meshGalleryRays returns every ray of meshgallery's first frame at
// 80x60, the benchmark workload's size.
func meshGalleryRays(b *testing.B) (*nowrender.Scene, *rayLog) {
	b.Helper()
	sc := scenes.MeshGallery(scenes.MeshGalleryFrames)
	ft, err := trace.New(sc, 0, trace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	log := &rayLog{}
	ft.NewWorker(log).RenderFull(fb.New(80, 60))
	return sc, log
}

// BenchmarkMeshIntersectT is what one gallery tile costs a ray that
// enters its box: the mesh walk under meshgallery-shard4-farm, the
// reference render and every scene with a mesh in it. Most of the rays
// are camera and shadow rays.
func BenchmarkMeshIntersectT(b *testing.B) {
	sc, log := meshGalleryRays(b)
	// The tile the most rays enter, and those rays.
	var tile *geom.Mesh
	var idx []int
	for _, ro := range sc.ResolveFrame(0) {
		m, ok := ro.Shape.(*geom.Mesh)
		if !ok {
			continue
		}
		var in []int
		for i, r := range log.rays {
			if _, enters := m.Bounds().IntersectRay(r, log.tMin[i], log.tMax[i]); enters {
				in = append(in, i)
			}
		}
		if len(in) > len(idx) {
			tile, idx = m, in
		}
	}
	if len(idx) < 500 {
		b.Fatalf("only %d rays enter a tile's box", len(idx))
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		k := idx[i%len(idx)]
		if _, _, ok := tile.IntersectT(log.rays[k], log.tMin[k], log.tMax[k]); ok {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit_share")
}

// BenchmarkRouterIntersect is the same frame's rays through a 4-shard
// cluster: slab clipping, sub-grid walks, mesh views and the forward
// record's encode and decode at every transition.
func BenchmarkRouterIntersect(b *testing.B) {
	sc, log := meshGalleryRays(b)
	var st objspace.Stats
	cl, err := objspace.Build(sc, 0, trace.Options{}, objspace.Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	wk := cl.WorkersFor(&st)(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(log.rays)
		wk.Intersect(log.rays[k], log.tMin[k], log.tMax[k])
	}
	b.ReportMetric(float64(st.RaysForwarded())/float64(b.N), "forwards/ray")
}

// BenchmarkTracer_AdaptiveAA measures the edge-adaptive antialiasing
// against the plain single-sample render.
func BenchmarkTracer_AdaptiveAA(b *testing.B) {
	sc := scenes.Quickstart()
	for i := 0; i < b.N; i++ {
		ft, err := trace.New(sc, 0, trace.Options{AAThreshold: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		ft.RenderFull(fb.New(benchW, benchH))
	}
}

// BenchmarkOBJ_ParseCube measures the OBJ loader.
func BenchmarkOBJ_ParseCube(b *testing.B) {
	src := `v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
f 5 8 7 6
f 1 5 6 2
f 2 6 7 3
f 3 7 8 4
f 5 1 4 8
`
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := objfile.Parse(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDL_ParseScene measures the scene-language parser.
func BenchmarkSDL_ParseScene(b *testing.B) {
	src := `
global_settings { max_depth 5 frames 45 }
camera { location <0, 2, 8> look_at <0, 1, 0> fov 55 }
light_source { <5, 9, 7> color rgb <1, 1, 1> }
plane { <0, 1, 0>, 0 pigment { checker rgb <1,1,1> rgb <0.2,0.2,0.2> } }
sphere { <0, 1, 0>, 1
  pigment { color rgb <1, 1, 1> }
  finish { ambient 0.02 diffuse 0.05 specular 0.9 shininess 200 reflect 0.1 transmit 0.85 ior 1.5 }
  animate { keyframe 0 <0,0,0> keyframe 44 <3,0,0> }
}
torus { 2, 0.5 rotate <90, 0, 0> translate <0, 2, 0> }
`
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := nowrender.ParseScene("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarm_FaultRecovery exercises the worker-failure requeue path.
func BenchmarkFarm_FaultRecovery(b *testing.B) {
	sc := scenes.Newton(4)
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderVirtual(farm.Config{
			Scene: sc, W: 40, H: 52, Coherence: true,
			Scheme: partition.Scheme{Sequence: true, Adaptive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
