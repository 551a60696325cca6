package trace

import (
	"math"
	"testing"

	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	vm "nowrender/internal/vecmath"
)

// exhaustive is the oracle the grid is fuzzed against: every object of
// the frame in object order, no grid, no mailboxes. It returns the nearest
// parameter in (tMin, tMax) and the class of the segment as Occluded
// defines it: the strongest class of every object the segment meets.
func exhaustive(ft *FrameTracer, r vm.Ray, tMin, tMax float64) (float64, bool, Occlusion) {
	bestT, found, occ := tMax, false, OccClear
	for _, ro := range ft.Objects() {
		if t, _, ok := ro.Shape.IntersectT(r, tMin, bestT); ok {
			bestT, found = t, true
		}
		if _, _, ok := ro.Shape.IntersectT(r, tMin, tMax); ok {
			class := OccTransmissive
			if ro.Obj.Mat.Finish.Transmit <= 0 {
				class = OccBlocked
				if ro.Obj.Track == nil || ro.Obj.Track.IsStatic() {
					class = OccStaticBlocked
				}
			}
			occ = max(occ, class)
		}
	}
	return bestT, found, occ
}

// unit maps any finite x into [0, 1).
func unit(x float64) float64 { return math.Abs(x - math.Trunc(x)) }

// fuzzRay draws FuzzIntersectMatchesExhaustive's ray of the given kind in
// ft's frame from the fractions u and v, which wrap into [0, 1), and the
// end of its parameter range. kind%5 picks the ray: 0 from outside the
// box, beyond the face kind/5 names, to a point in the box; 1 from beyond
// a light, away from the box centre, to a point in the box; 2 the shadow
// segment from a point in the box to a light; 3 along a face of the box,
// in its plane or entering one part in a million; 4 between two points
// anywhere within a box size of the box, most of which miss it.
func fuzzRay(ft *FrameTracer, kind uint8, u, v vm.Vec3) (vm.Ray, float64, bool) {
	lights := ft.Scene.Lights
	box := ft.Grid().Bounds()
	size := box.Size()
	// in returns the point at fractions p of the box grown by grow box
	// sizes on every side.
	in := func(p vm.Vec3, grow float64) vm.Vec3 {
		return box.Min.Sub(size.Scale(grow)).Add(vm.V(unit(p.X), unit(p.Y), unit(p.Z)).Mul(size.Scale(1 + 2*grow)))
	}
	axis, high := int(kind/5)%3, kind/15%2 == 1
	face := box.Min.Axis(axis)
	if high {
		face = box.Max.Axis(axis)
	}
	tMax := math.Inf(1)
	var o, d vm.Vec3
	switch kind % 5 {
	case 0:
		out := (0.01 + 2*unit(u.Axis(axis))) * size.Axis(axis)
		if !high {
			out = -out
		}
		o = in(u, 1).SetAxis(axis, face+out)
		d = in(v, 0).Sub(o)
	case 1:
		lp := lights[int(kind/5)%len(lights)].PosAt(ft.Frame)
		o = lp.Add(lp.Sub(box.Center()).Scale(unit(u.X))).Add(size.Scale(0.1 * (unit(u.Y) - 0.5)))
		d = in(v, 0).Sub(o)
	case 2:
		lp := lights[int(kind/5)%len(lights)].PosAt(ft.Frame)
		o = in(v, 0)
		d = lp.Sub(o)
	case 3:
		o = in(u, 0.5).SetAxis(axis, face)
		d = in(v, 0.5).Sub(o).SetAxis(axis, 0)
		if unit(v.Axis(axis)) < 0.5 {
			// Entering the box through the face, barely.
			dir := 1e-6 * d.Len()
			if high {
				dir = -dir
			}
			d = d.SetAxis(axis, dir)
		}
	case 4:
		o = in(u, 1)
		d = in(v, 1).Sub(o)
	}
	n := d.Len()
	if n < 1e-9 || math.IsInf(n, 0) {
		return vm.Ray{}, 0, false
	}
	if kind%5 == 2 {
		tMax = n - vm.ShadowEps // stop short of the light, as shade does
	}
	return vm.Ray{Origin: o, Dir: d.Scale(1 / n)}, tMax, true
}

// FuzzIntersectMatchesExhaustive: the grid covers the bounded geometry
// alone, so camera rays, shadow rays to far lights and rays skimming the
// box reach it through StartWalk's clip. On such rays (fuzzRay's five
// kinds) Worker.Intersect must return the exhaustive loop's nearest t bit
// for bit, and Occluded the exhaustive class. The frames cover quadrics
// beside a plane (newton), a glass ball between five planes (bouncing),
// transmissive and transformed shapes and a moving opaque marble
// (gallery), triangle meshes (meshgallery), random scenes of every
// primitive, and newton again at the top of a marble's swing, where the
// marble's shadow falls clear of the frame. The seed corpus alone reaches
// every class.
func FuzzIntersectMatchesExhaustive(f *testing.F) {
	var tracers []*FrameTracer
	for _, sc := range []*scene.Scene{
		scenes.Newton(45), scenes.Bouncing(30), scenes.Gallery(30),
		scenes.MeshGallery(4), randomScene(3), randomScene(8),
	} {
		ft, err := New(sc, sc.Frames/2, Options{})
		if err != nil {
			f.Fatal(err)
		}
		tracers = append(tracers, ft)
	}
	swing, err := New(scenes.Newton(45), 0, Options{})
	if err != nil {
		f.Fatal(err)
	}
	tracers = append(tracers, swing)
	// Four random rays of every kind, face and light on every frame, so
	// the seed corpus alone sweeps the box's faces and corners.
	var seen [4]int
	rng := vm.NewRNG(1)
	for sel, ft := range tracers {
		for kind := 0; kind < 30; kind++ {
			for i := 0; i < 4; i++ {
				u := vm.V(rng.Float64(), rng.Float64(), rng.Float64())
				v := vm.V(rng.Float64(), rng.Float64(), rng.Float64())
				f.Add(uint8(sel), uint8(kind), u.X, u.Y, u.Z, v.X, v.Y, v.Z)
				if r, tMax, ok := fuzzRay(ft, uint8(kind), u, v); ok {
					_, _, occ := exhaustive(ft, r, vm.ShadowEps, tMax)
					seen[occ]++
				}
			}
		}
	}
	for class, n := range seen {
		if n == 0 {
			f.Fatalf("no seed reaches class %d: clear %d, transmissive only %d, blocked by movers %d, by a static object %d",
				class, seen[OccClear], seen[OccTransmissive], seen[OccBlocked], seen[OccStaticBlocked])
		}
	}

	f.Fuzz(func(t *testing.T, sel, kind uint8, u0, u1, u2, v0, v1, v2 float64) {
		u, v := vm.V(u0, u1, u2), vm.V(v0, v1, v2)
		if !u.IsFinite() || !v.IsFinite() {
			t.Skip()
		}
		ft := tracers[int(sel)%len(tracers)]
		r, tMax, ok := fuzzRay(ft, kind, u, v)
		if !ok {
			t.Skip()
		}
		wantT, wantOK, wantOcc := exhaustive(ft, r, vm.ShadowEps, tMax)
		w := ft.NewWorker(nil)
		h, _, ok := w.Intersect(r, vm.ShadowEps, tMax)
		if ok != wantOK || (ok && h.T != wantT) {
			t.Fatalf("%s frame %d, ray %+v over (%g, %g): grid hit=%v t=%v, exhaustive hit=%v t=%v",
				ft.Scene.Name, ft.Frame, r, vm.ShadowEps, tMax, ok, h.T, wantOK, wantT)
		}
		if occ := w.Occluded(r, vm.ShadowEps, tMax); occ != wantOcc {
			t.Fatalf("%s frame %d, ray %+v over (%g, %g): occluded %d, exhaustive %d",
				ft.Scene.Name, ft.Frame, r, vm.ShadowEps, tMax, occ, wantOcc)
		}
	})
}
