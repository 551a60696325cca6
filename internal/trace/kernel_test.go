package trace

import (
	"math"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/grid"
	"nowrender/internal/heappin"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	vm "nowrender/internal/vecmath"
)

// voxelRuns observes rays the way the coherence engine's registration
// collector does: every ray's voxels, up to its hit, appended to one
// arena that is rewound per frame.
type voxelRuns struct {
	g   *grid.Grid
	run []int32
}

func (o *voxelRuns) ObserveRay(r vm.Ray, tHit float64) {
	o.run = o.g.AppendVoxels(o.run, r, 0, tHit)
}

// TestTraceAllocsZero: tracing a pixel allocates nothing, with or
// without an observer. It guards the per-ray path against a ray that
// escapes through an interface (a *vm.Ray parameter on geom.Shape does
// exactly that) and against closures.
func TestTraceAllocsZero(t *testing.T) {
	const w, h = 40, 52
	ft, err := New(scenes.Newton(45), 22, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := &voxelRuns{g: ft.Grid()}
	for name, wk := range map[string]*Worker{"plain": ft.NewWorker(nil), "observed": ft.NewWorker(obs)} {
		frame := func() {
			obs.run = obs.run[:0]
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					wk.TracePixel(x, y, w, h)
				}
			}
		}
		frame() // warm-up: the arena grows to its working size
		if _, n := heappin.PerCall(t, 3, frame); n != 0 {
			t.Errorf("%s worker: %v allocations per %dx%d frame, want 0", name, n, w, h)
		}
		if wk.Counters.Total() == 0 {
			t.Errorf("%s worker traced no rays", name)
		}
	}
}

// TestOccludedMatchesMarch: the any-hit walk plus its fallback give
// exactly the attenuation of the ordered march alone, and the walk the
// exhaustive loop's class, on segments
// between random points and from visible surface points to the lights —
// through opaque scenes and past the transmissive balls of bouncing and
// gallery, behind static blockers and behind newton's and gallery's
// moving ones. (The one intended difference, an opaque blocker behind more
// than 16 transmissive surfaces, occurs in no scene: DESIGN.md §3.)
func TestOccludedMatchesMarch(t *testing.T) {
	for name, sc := range map[string]*scene.Scene{
		"newton":   scenes.Newton(45),
		"bouncing": scenes.Bouncing(30),
		"gallery":  scenes.Gallery(30),
	} {
		frame := sc.Frames / 2
		ft, err := New(sc, frame, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Random segment ends come from the scene's extent — geometry,
		// camera and lights, padded past the planes — not from the grid,
		// which covers the bounded geometry alone: bouncing's only opaque
		// surfaces are its walls, floor and ceiling, so a segment blocks
		// only where it crosses one.
		b := sc.BoundsAt(frame)
		rng := vm.NewRNG(uint64(len(name)))
		inBounds := func() vm.Vec3 {
			return vm.V(rng.InRange(b.Min.X, b.Max.X), rng.InRange(b.Min.Y, b.Max.Y), rng.InRange(b.Min.Z, b.Max.Z))
		}
		var seen [4]int
		for i := 0; i < 4000; i++ {
			p, lp := inBounds(), inBounds()
			if i%2 == 0 {
				// As shade casts them: from a visible point to a light.
				r := ft.CameraRay(rng.Intn(60), rng.Intn(80), 60, 80, 0.5, 0.5)
				hit, _, ok := ft.Intersect(r, vm.ShadowEps, math.Inf(1))
				if !ok {
					continue
				}
				p = hit.Point.Add(hit.Normal.Scale(vm.ShadowEps))
				lp = sc.Lights[rng.Intn(len(sc.Lights))].PosAt(frame)
			}
			dir := lp.Sub(p)
			dist := dir.Len()
			ray := vm.Ray{Origin: p, Dir: dir.Scale(1 / dist), Kind: vm.ShadowRay}
			want := ft.shadowMarch(ray, dist)
			if got := ft.shadowAttenuation(p, lp, 0); got != want {
				t.Fatalf("%s: segment %v -> %v: attenuation %v, the march alone gives %v", name, p, lp, got, want)
			}
			occ := ft.Occluded(ray, vm.ShadowEps, dist-vm.ShadowEps)
			if _, _, want := exhaustive(ft, ray, vm.ShadowEps, dist-vm.ShadowEps); occ != want {
				t.Fatalf("%s: segment %v -> %v: occluded %d, exhaustive %d", name, p, lp, occ, want)
			}
			seen[occ]++
		}
		// Bouncing's one mover is glass: only its walls block.
		if seen[OccClear] == 0 || seen[OccStaticBlocked] == 0 ||
			(name != "newton" && seen[OccTransmissive] == 0) || (name != "bouncing" && seen[OccBlocked] == 0) {
			t.Errorf("%s: segments miss a class: clear %d, transmissive only %d, blocked by movers %d, by a static object %d",
				name, seen[OccClear], seen[OccTransmissive], seen[OccBlocked], seen[OccStaticBlocked])
		}
	}
}

// BenchmarkTraceNewtonFrame renders one frame of the benchmark's Newton
// animation (newton:90, frame 1) at 120x160 on the calling goroutine —
// one frame of Table 1's column (1) — and reports the tracer's cost per
// ray of every kind: the kernel number beneath the ledger's
// newton-plain makespan.
func BenchmarkTraceNewtonFrame(b *testing.B) {
	ft, err := New(scenes.Newton(90), 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	img := fb.New(120, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.RenderRegion(img, img.Bounds())
	}
	b.StopTimer()
	rays := float64(ft.Counters.Total())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rays, "ns/ray")
	b.ReportMetric(rays/float64(b.N), "rays/op")
}
