// Benchmarks regenerating the paper's evaluation: one benchmark per
// Table 1 column group, per figure, and per ablation from DESIGN.md.
//
// Wall time measures this host's tracer; the reported "virtual_ms"
// metric is the deterministic virtual-NOW makespan — the number whose
// *ratios* reproduce the paper's speedups (run cmd/benchtab for the
// assembled table). Workloads are reduced-size (the shape, not the
// absolute 1998 numbers, is the target); pass -full via cmd/benchtab for
// paper-scale runs.
package nowrender_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nowrender"
	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/experiments"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/msg"
	"nowrender/internal/objfile"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

const (
	benchW, benchH = 60, 80
	benchFrames    = 12
	benchBlock     = 20
)

func benchScene() *nowrender.Scene { return scenes.Newton(benchFrames) }

func reportVirtual(b *testing.B, res *farm.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Makespan.Milliseconds()), "virtual_ms")
	total := res.Run.TotalRays()
	b.ReportMetric(float64(total.Total()), "rays")
}

// --- Table 1 ---------------------------------------------------------

// BenchmarkTable1_Single is column (1): one processor, no coherence.
func BenchmarkTable1_Single(b *testing.B) {
	sc := benchScene()
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderSingle(farm.Config{Scene: sc, W: benchW, H: benchH},
			cluster.PaperTestbed()[0])
		if err != nil {
			b.Fatal(err)
		}
		reportVirtual(b, res)
	}
}

// BenchmarkTable1_SingleFC is columns (2)-(3): one processor with the
// frame-coherence algorithm.
func BenchmarkTable1_SingleFC(b *testing.B) {
	sc := benchScene()
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderSingle(farm.Config{Scene: sc, W: benchW, H: benchH, Coherence: true},
			cluster.PaperTestbed()[0])
		if err != nil {
			b.Fatal(err)
		}
		reportVirtual(b, res)
	}
}

// BenchmarkTable1_Distributed is columns (4)-(5): the 3-machine NOW
// without coherence.
func BenchmarkTable1_Distributed(b *testing.B) {
	sc := benchScene()
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderVirtual(farm.Config{
			Scene: sc, W: benchW, H: benchH,
			Scheme: partition.FrameDivision{BlockW: benchBlock, BlockH: benchBlock, Adaptive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportVirtual(b, res)
	}
}

// BenchmarkTable1_DistFCSeqDiv is columns (6)-(7): distributed +
// coherence with sequence division.
func BenchmarkTable1_DistFCSeqDiv(b *testing.B) {
	sc := benchScene()
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderVirtual(farm.Config{
			Scene: sc, W: benchW, H: benchH, Coherence: true,
			Scheme: partition.SequenceDivision{Adaptive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportVirtual(b, res)
	}
}

// BenchmarkTable1_DistFCFrameDiv is columns (8)-(9): distributed +
// coherence with frame division (the paper's winner).
func BenchmarkTable1_DistFCFrameDiv(b *testing.B) {
	sc := benchScene()
	for i := 0; i < b.N; i++ {
		res, err := farm.RenderVirtual(farm.Config{
			Scene: sc, W: benchW, H: benchH, Coherence: true,
			Scheme: partition.FrameDivision{BlockW: benchBlock, BlockH: benchBlock, Adaptive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		reportVirtual(b, res)
	}
}

// --- Figures ----------------------------------------------------------

// BenchmarkFigure1_RenderFramePair renders the two consecutive
// bouncing-ball frames of Figure 1.
func BenchmarkFigure1_RenderFramePair(b *testing.B) {
	sc := scenes.Bouncing(8)
	for i := 0; i < b.N; i++ {
		for f := 2; f <= 3; f++ {
			ft, err := trace.New(sc, f, trace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			img := fb.New(benchW, benchH)
			ft.RenderFull(img)
		}
	}
}

// BenchmarkFigure2_ActualDiff measures the pixel-by-pixel comparison of
// Figure 2(a).
func BenchmarkFigure2_ActualDiff(b *testing.B) {
	sc := scenes.Bouncing(8)
	imgs := make([]*fb.Framebuffer, 2)
	for f := 0; f < 2; f++ {
		ft, err := trace.New(sc, f+2, trace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		imgs[f] = fb.New(benchW, benchH)
		ft.RenderFull(imgs[f])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nowrender.DiffFrames(imgs[0], imgs[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2_PredictedDiff measures producing the coherence
// engine's dirty mask of Figure 2(b) (render frame + change detection).
func BenchmarkFigure2_PredictedDiff(b *testing.B) {
	sc := scenes.Bouncing(8)
	full := fb.NewRect(0, 0, benchW, benchH)
	for i := 0; i < b.N; i++ {
		eng, err := coherence.NewEngine(sc, benchW, benchH, full, 0, sc.Frames, coherence.Options{})
		if err != nil {
			b.Fatal(err)
		}
		img := fb.New(benchW, benchH)
		if _, err := eng.RenderFrame(0, img); err != nil {
			b.Fatal(err)
		}
		_ = eng.DirtyMask()
	}
}

// BenchmarkFigure4_Partitioning measures task generation for both
// schemes of Figure 4.
func BenchmarkFigure4_Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seq := partition.SequenceDivision{Adaptive: true}.InitialTasks(240, 320, 0, 120, 4)
		fd := partition.FrameDivision{BlockW: 120, BlockH: 160}.InitialTasks(240, 320, 0, 120, 4)
		if len(seq) != 4 || len(fd) != 4 {
			b.Fatal("unexpected task counts")
		}
	}
}

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

// --- Ablations (DESIGN.md §5) ----------------------------------------

// BenchmarkAblation_GridResolution sweeps the coherence voxel grid.
func BenchmarkAblation_GridResolution(b *testing.B) {
	for _, res := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			p := experiments.Params{Scene: benchScene(), W: benchW, H: benchH}
			for i := 0; i < b.N; i++ {
				out, err := experiments.AblationGridResolution(p, []int{res})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out[0].Rendered), "pixels_traced")
			}
		})
	}
}

// BenchmarkAblation_BlockSize sweeps frame-division block sizes,
// including the paper's inefficient extremes.
func BenchmarkAblation_BlockSize(b *testing.B) {
	for _, bs := range []int{5, 10, 20, 40, benchW} {
		b.Run(fmt.Sprintf("block%d", bs), func(b *testing.B) {
			sc := benchScene()
			for i := 0; i < b.N; i++ {
				res, err := farm.RenderVirtual(farm.Config{
					Scene: sc, W: benchW, H: benchH, Coherence: true,
					Scheme: partition.FrameDivision{BlockW: bs, BlockH: bs, Adaptive: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				reportVirtual(b, res)
			}
		})
	}
}

// BenchmarkAblation_JevansBlocks compares per-pixel coherence to
// Jevans-style block granularity.
func BenchmarkAblation_JevansBlocks(b *testing.B) {
	for _, g := range []int{1, 4, 8, 16} {
		name := "perpixel"
		if g > 1 {
			name = fmt.Sprintf("jevans%dx%d", g, g)
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Params{Scene: benchScene(), W: benchW, H: benchH}
			for i := 0; i < b.N; i++ {
				out, err := experiments.AblationJevansBlocks(p, []int{g})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out[0].Rendered), "pixels_traced")
			}
		})
	}
}

// BenchmarkAblation_AdaptiveSeq compares adaptive and static sequence
// division on the heterogeneous testbed.
func BenchmarkAblation_AdaptiveSeq(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			sc := benchScene()
			for i := 0; i < b.N; i++ {
				res, err := farm.RenderVirtual(farm.Config{
					Scene: sc, W: benchW, H: benchH, Coherence: true,
					Scheme: partition.SequenceDivision{Adaptive: adaptive},
				})
				if err != nil {
					b.Fatal(err)
				}
				reportVirtual(b, res)
			}
		})
	}
}

// BenchmarkAblation_ShadowCoherence measures shadow-segment registration
// on/off (off is incorrect; see the ablation in cmd/benchtab).
func BenchmarkAblation_ShadowCoherence(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			sc := benchScene()
			full := fb.NewRect(0, 0, benchW, benchH)
			for i := 0; i < b.N; i++ {
				eng, err := coherence.NewEngine(sc, benchW, benchH, full, 0, sc.Frames,
					coherence.Options{DisableShadowRegistration: disable})
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

// --- Substrate micro-benchmarks --------------------------------------

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
// speedup should approach the thread count (up to the core count);
// cmd/benchtab -parallel records the same sweep into BENCH_parallel.json.
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

// BenchmarkRenderFrameTimeline measures the timeline recorder's cost on
// the tile-pool hot path: the same full-frame render with tile tracks
// absent (the single-branch disabled path) and with live ring buffers
// recording every tile span. The two should be indistinguishable when
// off and within ~2% when on; cmd/benchtab -timeline records the same
// comparison into BENCH_timeline.json.
func BenchmarkRenderFrameTimeline(b *testing.B) {
	sc := benchScene()
	const threads = 4
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			ft, err := trace.New(sc, 0, trace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			img := fb.New(benchW, benchH)
			var tracks []*timeline.Track
			if mode == "on" {
				rec := timeline.New(0)
				for i := 0; i < threads; i++ {
					tracks = append(tracks, rec.Track(fmt.Sprintf("bench/tile%02d", i)))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.RenderRegionParallelTimed(img, img.Bounds(), threads, i, tracks)
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

// BenchmarkTransport_Chan measures in-process message round trips.
func BenchmarkTransport_Chan(b *testing.B) {
	a, c := msg.Pipe(16)
	defer a.Close()
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg.Message{Tag: 1, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransport_TCP measures loopback TCP message round trips.
func BenchmarkTransport_TCP(b *testing.B) {
	l, err := msg.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan msg.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			done <- c
		}
	}()
	client, err := msg.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	server := <-done
	l.Close()
	defer client.Close()
	defer server.Close()
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg.Message{Tag: 1, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkFarm_LocalProtocol measures the full wall-clock goroutine
// farm on a small animation.
func BenchmarkFarm_LocalProtocol(b *testing.B) {
	sc := scenes.Newton(4)
	for i := 0; i < b.N; i++ {
		if _, err := farm.RenderLocal(farm.Config{
			Scene: sc, W: 40, H: 52, Coherence: true, Workers: 3,
			Scheme: partition.FrameDivision{BlockW: 20, BlockH: 26, Adaptive: true},
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
	cl, err := objspace.Build(sc, 0, trace.Options{}, objspace.Options{Shards: 4, Stats: &st})
	if err != nil {
		b.Fatal(err)
	}
	wk := cl.NewWorker(nil)
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
			Scheme: partition.SequenceDivision{Adaptive: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
