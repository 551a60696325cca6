package trace

import (
	"math"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// testScene builds a small scene: red matte sphere on a white floor with
// one light behind the camera.
func testScene() *scene.Scene {
	s := scene.New("test")
	s.Camera = scene.Camera{Pos: vm.V(0, 1, 6), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 60}
	s.Background = material.RGB(0.1, 0.1, 0.3)
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Red), nil)
	s.AddLight("key", vm.V(5, 8, 6), material.White)
	return s
}

func newTracer(t *testing.T, s *scene.Scene, opts Options) *FrameTracer {
	t.Helper()
	ft, err := New(s, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestNewValidates(t *testing.T) {
	s := testScene()
	if _, err := New(s, 5, Options{}); err == nil {
		t.Error("out-of-range frame accepted")
	}
	if _, err := New(s, -1, Options{}); err == nil {
		t.Error("negative frame accepted")
	}
	s.Frames = 0
	if _, err := New(s, 0, Options{}); err == nil {
		t.Error("invalid scene accepted")
	}
}

func TestBackgroundForEscapingRay(t *testing.T) {
	s := testScene()
	ft := newTracer(t, s, Options{})
	// Ray pointing up into the sky.
	c := ft.traceRay(vm.Ray{Origin: vm.V(0, 2, 6), Dir: vm.V(0, 1, 0), Kind: vm.CameraRay})
	if !c.ApproxEq(s.Background, 1e-12) {
		t.Errorf("sky colour = %v, want background", c)
	}
}

func TestSphereVisibleInCenter(t *testing.T) {
	ft := newTracer(t, testScene(), Options{})
	c := ft.TracePixel(120, 100, 240, 200) // centre pixel: the sphere
	// The red sphere must dominate: red channel well above blue.
	if c.X <= c.Z || c.X < 0.05 {
		t.Errorf("centre pixel = %v, expected red-dominated", c)
	}
}

func TestDiffuseFalloff(t *testing.T) {
	// A sphere lit from +X: the +X side must be brighter than the
	// terminator region.
	s := scene.New("falloff")
	s.Camera = scene.Camera{Pos: vm.V(0, 0, 6), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
	s.Add("ball", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.White), nil)
	s.AddLight("side", vm.V(20, 0, 0), material.White)
	ft := newTracer(t, s, Options{})

	lit := ft.traceRay(vm.Ray{Origin: vm.V(3, 0, 1), Dir: vm.V(0.8, 0, 0).Sub(vm.V(3, 0, 1)).Norm(), Kind: vm.CameraRay})
	grazing := ft.traceRay(vm.Ray{Origin: vm.V(0, 3, 1), Dir: vm.V(0, 0.95, 0).Sub(vm.V(0, 3, 1)).Norm(), Kind: vm.CameraRay})
	if lit.X <= grazing.X {
		t.Errorf("lit side %v not brighter than grazing %v", lit, grazing)
	}
}

func TestShadow(t *testing.T) {
	// Light directly above; a small sphere floats above the floor point
	// under test, so that point must be in shadow.
	s := scene.New("shadow")
	s.Camera = scene.Camera{Pos: vm.V(0, 3, 8), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("blocker", geom.NewSphere(vm.V(0, 2, 0), 0.5), material.Matte(material.Red), nil)
	s.AddLight("top", vm.V(0, 10, 0), material.White)
	ft := newTracer(t, s, Options{})

	shadowed := ft.traceRay(aimAt(vm.V(0, 3, 8), vm.V(0, 0, 0)))
	open := ft.traceRay(aimAt(vm.V(0, 3, 8), vm.V(3, 0, 0)))
	if shadowed.X >= open.X {
		t.Errorf("shadowed point %v not darker than open point %v", shadowed, open)
	}
	// Shadowed point still receives ambient light, not pure black.
	if shadowed.MaxComponent() <= 0 {
		t.Error("shadow is pitch black; ambient term missing")
	}
}

func aimAt(from, to vm.Vec3) vm.Ray {
	return vm.Ray{Origin: from, Dir: to.Sub(from).Norm(), Kind: vm.CameraRay}
}

func TestMirrorReflection(t *testing.T) {
	// A perfect mirror floor under a red sphere: looking at the floor in
	// front of the sphere must pick up red via reflection.
	s := scene.New("mirror")
	s.Camera = scene.Camera{Pos: vm.V(0, 2, 8), LookAt: vm.V(0, 0, 2), Up: vm.V(0, 1, 0), FOV: 60}
	mirror := material.NewMaterial(material.Solid{C: material.Black},
		material.Finish{Reflect: 1.0, IOR: 1})
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), mirror, nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1.2, 0), 1), material.Matte(material.Red), nil)
	s.AddLight("key", vm.V(4, 8, 8), material.White)
	ft := newTracer(t, s, Options{})

	// Aim at the floor point whose mirror image is the sphere: the
	// reflected camera sees the sphere from below.
	c := ft.traceRay(aimAt(s.Camera.Pos, vm.V(0, 0, 2.2)))
	if c.X <= 0.02 || c.X <= c.Z {
		t.Errorf("mirror floor shows %v, expected red reflection", c)
	}
	if ft.Counters.ByKind[vm.ReflectedRay] == 0 {
		t.Error("no reflected rays counted")
	}
}

func TestRefractionThroughGlass(t *testing.T) {
	// Glass sphere between camera and a green wall: the pixel through the
	// sphere centre must still be green-dominated (light passes through).
	s := scene.New("glass")
	s.Camera = scene.Camera{Pos: vm.V(0, 0, 8), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 40}
	s.Background = material.Black
	glass := material.NewMaterial(material.Solid{C: material.White}, material.GlassFinish())
	s.Add("lens", geom.NewSphere(vm.V(0, 0, 0), 1), glass, nil)
	s.Add("wall", geom.NewPlane(vm.V(0, 0, 1), -4), material.Matte(material.Green), nil)
	s.AddLight("key", vm.V(0, 2, 8), material.White)
	ft := newTracer(t, s, Options{})

	c := ft.traceRay(aimAt(s.Camera.Pos, vm.V(0, 0, 0)))
	if c.Y <= 0.02 {
		t.Errorf("through-glass pixel %v has no green; refraction broken", c)
	}
	if ft.Counters.ByKind[vm.RefractedRay] == 0 {
		t.Error("no refracted rays counted")
	}
}

func TestMaxDepthTerminates(t *testing.T) {
	// Two parallel mirrors would recurse forever without a depth bound.
	s := scene.New("mirrors")
	s.Camera = scene.Camera{Pos: vm.V(0, 0, 0.5), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
	mirror := material.NewMaterial(material.Solid{C: material.Black},
		material.Finish{Reflect: 1, IOR: 1})
	s.Add("m1", geom.NewPlane(vm.V(0, 0, 1), -2), mirror, nil)
	s.Add("m2", geom.NewPlane(vm.V(0, 0, 1), 2), mirror, nil)
	s.MaxDepth = 5
	ft := newTracer(t, s, Options{})
	ft.traceRay(vm.Ray{Origin: vm.V(0, 0, 0.5), Dir: vm.V(0, 0, -1), Kind: vm.CameraRay})
	total := ft.Counters.ByKind[vm.CameraRay] + ft.Counters.ByKind[vm.ReflectedRay]
	if total > 5 {
		t.Errorf("depth bound ignored: %d rays cast", total)
	}
	if ft.Counters.ByKind[vm.ReflectedRay] != 4 {
		t.Errorf("reflected rays = %d, want 4 (depth 5)", ft.Counters.ByKind[vm.ReflectedRay])
	}
}

func TestMaxDepthOverride(t *testing.T) {
	s := scene.New("mirrors")
	s.Camera = scene.Camera{Pos: vm.V(0, 0, 0.5), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
	mirror := material.NewMaterial(material.Solid{C: material.Black}, material.Finish{Reflect: 1, IOR: 1})
	s.Add("m1", geom.NewPlane(vm.V(0, 0, 1), -2), mirror, nil)
	s.Add("m2", geom.NewPlane(vm.V(0, 0, 1), 2), mirror, nil)
	ft := newTracer(t, s, Options{MaxDepth: 2})
	ft.traceRay(vm.Ray{Origin: vm.V(0, 0, 0.5), Dir: vm.V(0, 0, -1), Kind: vm.CameraRay})
	if got := ft.Counters.ByKind[vm.ReflectedRay]; got != 1 {
		t.Errorf("reflected rays = %d, want 1 with MaxDepth=2", got)
	}
}

func TestShadowRaysCounted(t *testing.T) {
	ft := newTracer(t, testScene(), Options{})
	ft.TracePixel(120, 100, 240, 200)
	if ft.Counters.ByKind[vm.ShadowRay] == 0 {
		t.Error("no shadow rays counted for a lit hit")
	}
	if ft.Counters.ByKind[vm.CameraRay] != 1 {
		t.Errorf("camera rays = %d, want 1", ft.Counters.ByKind[vm.CameraRay])
	}
}

func TestGridIntersectMatchesBruteForce(t *testing.T) {
	s := scene.New("brute")
	s.Camera = scene.Camera{Pos: vm.V(0, 2, 10), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), -2), material.Matte(material.White), nil)
	rng := vm.NewRNG(7)
	for i := 0; i < 25; i++ {
		c := vm.V(rng.InRange(-4, 4), rng.InRange(-2, 4), rng.InRange(-4, 4))
		s.Add("s", geom.NewSphere(c, rng.InRange(0.2, 0.8)), material.Matte(material.Red), nil)
	}
	s.AddLight("l", vm.V(0, 10, 0), material.White)
	ft := newTracer(t, s, Options{})
	objs := ft.Objects()

	brute := func(r vm.Ray) (float64, int) {
		bestT := math.Inf(1)
		bestI := -1
		for i, ro := range objs {
			if h, ok := geom.Intersect(ro.Shape, r, vm.ShadowEps, bestT); ok {
				bestT, bestI = h.T, i
			}
		}
		return bestT, bestI
	}

	for trial := 0; trial < 3000; trial++ {
		o := vm.V(rng.InRange(-8, 8), rng.InRange(-3, 8), rng.InRange(-8, 12))
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		if d.Len() < 0.05 {
			continue
		}
		r := vm.Ray{Origin: o, Dir: d.Norm()}
		wantT, wantI := brute(r)
		h, obj, ok := ft.Intersect(r, vm.ShadowEps, math.Inf(1))
		if (wantI >= 0) != ok {
			t.Fatalf("trial %d: hit mismatch: brute=%v grid=%v ray=%+v", trial, wantI >= 0, ok, r)
		}
		if !ok {
			continue
		}
		if math.Abs(h.T-wantT) > 1e-9 {
			t.Fatalf("trial %d: T mismatch: brute=%v grid=%v", trial, wantT, h.T)
		}
		gotI := -1
		for i := range objs {
			if &objs[i] == obj {
				gotI = i
			}
		}
		if gotI != wantI && math.Abs(h.T-wantT) > 1e-12 {
			t.Fatalf("trial %d: object mismatch: brute=%d grid=%d", trial, wantI, gotI)
		}
	}
}

func TestRenderRegionMatchesPerPixel(t *testing.T) {
	s := testScene()
	ft := newTracer(t, s, Options{})
	img := fb.New(32, 24)
	ft.RenderFull(img)
	ft2 := newTracer(t, s, Options{})
	for y := 0; y < 24; y++ {
		for x := 0; x < 32; x++ {
			want := fb.New(1, 1)
			want.Set(0, 0, ft2.TracePixel(x, y, 32, 24))
			wr, wg, wb := want.At(0, 0)
			gr, gg, gb := img.At(x, y)
			if wr != gr || wg != gg || wb != gb {
				t.Fatalf("pixel (%d,%d): region render %v vs per-pixel %v",
					x, y, [3]byte{gr, gg, gb}, [3]byte{wr, wg, wb})
			}
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	s := testScene()
	a := fb.New(48, 40)
	b := fb.New(48, 40)
	newTracer(t, s, Options{}).RenderFull(a)
	newTracer(t, s, Options{}).RenderFull(b)
	if !a.Equal(b) {
		t.Error("two renders of the same frame differ")
	}
}

func TestSupersamplingDeterministic(t *testing.T) {
	s := testScene()
	a := fb.New(16, 16)
	b := fb.New(16, 16)
	newTracer(t, s, Options{SamplesPerPixel: 4}).RenderFull(a)
	newTracer(t, s, Options{SamplesPerPixel: 4}).RenderFull(b)
	if !a.Equal(b) {
		t.Error("supersampled renders differ; jitter is not seeded per pixel")
	}
}

type recordObserver struct {
	rays []vm.Ray
	tds  []float64
}

func (ro *recordObserver) ObserveRay(r vm.Ray, tHit float64) {
	ro.rays = append(ro.rays, r)
	ro.tds = append(ro.tds, tHit)
}

func TestObserverSeesAllRayKinds(t *testing.T) {
	s := scene.New("obs")
	s.Camera = scene.Camera{Pos: vm.V(0, 1, 6), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 60}
	glass := material.NewMaterial(material.Solid{C: material.White}, material.GlassFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), glass, nil)
	s.AddLight("key", vm.V(5, 8, 6), material.White)
	obs := &recordObserver{}
	ft := newTracer(t, s, Options{Observer: obs})
	ft.TracePixel(120, 100, 240, 200)

	kinds := map[vm.RayKind]bool{}
	for _, r := range obs.rays {
		kinds[r.Kind] = true
	}
	for _, k := range []vm.RayKind{vm.CameraRay, vm.ShadowRay, vm.RefractedRay} {
		if !kinds[k] {
			t.Errorf("observer missed %v rays (saw %v)", k, kinds)
		}
	}
}

func TestObserverHitDistances(t *testing.T) {
	s := testScene()
	obs := &recordObserver{}
	ft := newTracer(t, s, Options{Observer: obs})
	// A ray guaranteed to hit the sphere at distance 4 (camera at z=6,
	// sphere front at z=1... aimed dead centre).
	ft.traceRay(aimAt(vm.V(0, 1, 6), vm.V(0, 1, 0)))
	if len(obs.rays) == 0 {
		t.Fatal("observer saw nothing")
	}
	if obs.rays[0].Kind != vm.CameraRay {
		t.Fatalf("first observed ray kind = %v", obs.rays[0].Kind)
	}
	if math.Abs(obs.tds[0]-5) > 1e-6 {
		t.Errorf("camera ray hit distance = %v, want 5 (sphere front)", obs.tds[0])
	}
}

func TestGridResOption(t *testing.T) {
	s := testScene()
	ft := newTracer(t, s, Options{GridRes: 8})
	nx, ny, nz := ft.Grid().Dims()
	if nx != 8 || ny != 8 || nz != 8 {
		t.Errorf("grid dims = %d,%d,%d, want 8s", nx, ny, nz)
	}
	// Rendering still correct vs auto grid.
	a := fb.New(24, 20)
	b := fb.New(24, 20)
	ft.RenderFull(a)
	newTracer(t, s, Options{}).RenderFull(b)
	if !a.Equal(b) {
		t.Error("grid resolution changed the image")
	}
}
