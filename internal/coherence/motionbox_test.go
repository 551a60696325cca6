package coherence

import (
	"math"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// The registration grid covers only the movers' swept bounds. These
// scenes put what a mover changes — its shadow, its reflection, its
// refracted image — on static geometry far outside that box, or make the
// box degenerate (unbounded mover, no mover, one frame), and hold the
// engine to the plain tracer's bytes on every frame. One more moves a
// ball through the shadow of a static slab, whose segments go
// unregistered.

// slide moves an object by from at the first frame to by to at the last.
func slide(frames int, from, to vm.Vec3) scene.Track {
	return scene.KeyframeTrack{Keys: []scene.Keyframe{{Frame: 0, Pos: from}, {Frame: frames - 1, Pos: to}}}
}

// steps moves an object along +x by one unit per frame pair for which
// moving reports true, and keeps it still for the others.
func steps(moving func(f0 int) bool) scene.Track {
	return scene.FuncTrack{F: func(f int) vm.Transform {
		x := 0
		for g := 0; g < f; g++ {
			if moving(g) {
				x++
			}
		}
		return vm.NewTransform(vm.Translate(0.3*float64(x), 0, 0))
	}}
}

// stage is a checkered floor under one light, seen from cam towards at.
func stage(name string, frames int, cam, at, light vm.Vec3) *scene.Scene {
	s := scene.New(name)
	s.Frames = frames
	s.Camera = scene.Camera{Pos: cam, LookAt: at, Up: vm.V(0, 1, 0), FOV: 55}
	s.Background = material.RGB(0.1, 0.1, 0.2)
	floor := material.NewMaterial(material.Checker{A: material.White, B: material.RGB(0.2, 0.2, 0.2)}, material.DefaultFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	s.AddLight("key", light, material.White)
	return s
}

const boxFrames = 8

// leftMoves and rightMoves say in which frame pairs (f0, f0+1) the two
// balls of rest-and-move move: first the left one, then the right one,
// then neither, then both.
func leftMoves(f0 int) bool  { return f0 < 2 || f0 == 6 }
func rightMoves(f0 int) bool { return f0 == 2 || f0 == 3 || f0 == 6 }

type boxCase struct {
	name       string
	sc         *scene.Scene
	start, end int
	// everything marks a mover that dirties every pixel on every frame,
	// still a scene in which nothing moves.
	everything, still bool
	// check, when non-nil, inspects the engine after each frame.
	check func(t *testing.T, e *Engine, rep FrameReport)
}

func boxCases() []boxCase {
	chrome := material.NewMaterial(material.Solid{C: material.RGB(0.9, 0.9, 0.95)}, material.ChromeFinish())
	glass := material.NewMaterial(material.Solid{C: material.White}, material.GlassFinish())
	red := material.Matte(material.Red)

	// The ball floats at y = 3 under a low light far to its left: the
	// shadow falls on the floor around x = 6, the motion box ends at x = 2.
	shadow := stage("shadow-far", boxFrames, vm.V(3, 4, 12), vm.V(3, 1, 0), vm.V(-6, 6, 0))
	shadow.Add("ball", geom.NewSphere(vm.V(0, 3, 0), 1), red, slide(boxFrames, vm.V(-1, 0, 0), vm.V(1, 0, 0)))

	// The ball moves behind the camera; the only pixels that show it are
	// on the static chrome sphere in front.
	mirror := stage("reflection", boxFrames, vm.V(0, 2, 10), vm.V(0, 2, 0), vm.V(4, 9, 12))
	mirror.Add("chrome", geom.NewSphere(vm.V(0, 2, 0), 2), chrome, nil)
	mirror.Add("ball", geom.NewSphere(vm.V(0, 2.5, 14), 0.8), red, slide(boxFrames, vm.V(-2, 0, 0), vm.V(2, 0, 0)))

	// The ball passes behind a static glass sphere and is seen through it.
	lens := stage("refraction", boxFrames, vm.V(0, 2, 10), vm.V(0, 2, 0), vm.V(4, 9, 12))
	lens.Add("glass", geom.NewSphere(vm.V(0, 2, 5), 1.5), glass, nil)
	lens.Add("ball", geom.NewSphere(vm.V(0, 2, -4), 0.8), red, slide(boxFrames, vm.V(-2, 0, 0), vm.V(2, 0, 0)))

	apart := stage("two-movers", boxFrames, vm.V(0, 5, 26), vm.V(0, 1, 0), vm.V(0, 12, 10))
	apart.Add("pillar", geom.NewCylinder(vm.V(0, 0, 0), vm.V(0, 4, 0), 0.5), material.Matte(material.Blue), nil)
	apart.Add("left", geom.NewSphere(vm.V(-9, 1, 0), 1), red, slide(boxFrames, vm.V(0, 0, -1), vm.V(0, 0, 1)))
	apart.Add("right", geom.NewSphere(vm.V(9, 1, 0), 1), red, slide(boxFrames, vm.V(0, 0, 1), vm.V(0, 0, -1)))

	// Newton's half periods: each ball rests while the other swings.
	rest := stage("rest-and-move", boxFrames, vm.V(0, 3, 12), vm.V(0, 1, 0), vm.V(0, 10, 4))
	rest.Add("left", geom.NewSphere(vm.V(-4, 1, 0), 0.8), red, steps(leftMoves))
	rest.Add("right", geom.NewSphere(vm.V(3, 1, 0), 0.8), red, steps(rightMoves))

	gone := stage("leaves-frustum", boxFrames, vm.V(0, 3, 10), vm.V(0, 1, 0), vm.V(6, 10, 8))
	gone.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), red, slide(boxFrames, vm.V(0, 0, 0), vm.V(21, 0, 0)))

	// An unbounded mover: the floor sinks under a resting ball.
	sink := stage("moving-plane", boxFrames, vm.V(0, 3, 10), vm.V(0, 1, 0), vm.V(6, 10, 8))
	sink.Objects[0].Track = slide(boxFrames, vm.V(0, 0, 0), vm.V(0, -1, 0))
	sink.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), red, nil)

	// The light moves for frame pairs 2 and 3 only; the ball all along.
	// After them the voxels cached for the ball are two frames old.
	lit := movingScene(boxFrames)
	lit.Name = "moving-light"
	lit.Lights[0].Track = scene.FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(min(max(f-2, 0), 2)), 0, 0))
	}}

	litOnly := staticScene(4)
	litOnly.Name = "moving-light-only"
	litOnly.Lights[0].Track = scene.FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(f), 0, 0))
	}}

	slab := umbraScene()
	var umbra []bool // umbraPixels, worked out at the first check

	// plain fails unless the engine did exactly a plain render's work.
	plain := func(t *testing.T, e *Engine, rep FrameReport) {
		if e.Grid() != nil || rep.Registrations != 0 || e.RegistrationCount() != 0 || rep.ChangeVoxels != 0 {
			t.Errorf("nothing can change, yet grid %v, %d registrations (%d live), %d changed voxels",
				e.Grid() != nil, rep.Registrations, e.RegistrationCount(), rep.ChangeVoxels)
		}
	}

	return []boxCase{
		{name: "shadow-far", sc: shadow, end: boxFrames},
		{name: "reflection", sc: mirror, end: boxFrames},
		{name: "refraction", sc: lens, end: boxFrames},
		{name: "two-movers", sc: apart, end: boxFrames},
		{name: "rest-and-move", sc: rest, end: boxFrames, check: func(t *testing.T, e *Engine, rep FrameReport) {
			// The voxels a mover left behind when it came to rest must not
			// be marked again: with both balls at rest nothing is dirty, and
			// while only the right one moves the image's left half is clean.
			left, right := leftMoves(rep.Frame), rightMoves(rep.Frame)
			if rep.Frame+1 == boxFrames {
				return
			}
			if (rep.DirtyNext > 0) != (left || right) {
				t.Errorf("frame %d: %d pixels dirty with left moving=%v right moving=%v", rep.Frame, rep.DirtyNext, left, right)
			}
			if right && !left {
				for p, d := range e.DirtyMask() {
					if d && p%tw < tw/2 {
						t.Fatalf("frame %d: pixel (%d,%d) dirty while only the right ball moves", rep.Frame, p%tw, p/tw)
					}
				}
			}
		}},
		{name: "rest-and-move/from-4", sc: rest, start: 4, end: boxFrames},
		{name: "leaves-frustum", sc: gone, end: boxFrames},
		{name: "moving-plane", sc: sink, end: boxFrames, everything: true, check: func(t *testing.T, e *Engine, _ FrameReport) {
			seq := vm.EmptyAABB()
			for f := 0; f < boxFrames; f++ {
				seq = seq.Union(sink.BoundsAt(f))
			}
			if got := e.Grid().Bounds(); got != seq {
				t.Fatalf("grid of an unbounded mover spans %v, want the sequence bounds %v", got, seq)
			}
		}},
		{name: "moving-light", sc: lit, end: boxFrames},
		{name: "moving-light-only", sc: litOnly, end: 4, check: func(t *testing.T, e *Engine, rep FrameReport) {
			plain(t, e, rep)
			if rep.Rendered != tw*th {
				t.Errorf("frame %d: %d pixels traced under a moving light, want all %d", rep.Frame, rep.Rendered, tw*th)
			}
		}},
		{name: "no-mover", sc: staticScene(3), end: 3, still: true, check: func(t *testing.T, e *Engine, rep FrameReport) {
			plain(t, e, rep)
			if rep.Frame > 0 && rep.Rendered != 0 {
				t.Errorf("frame %d: %d pixels traced in a static scene", rep.Frame, rep.Rendered)
			}
		}},
		{name: "one-frame", sc: movingScene(5), start: 2, end: 3, check: plain},
		{name: "newton", sc: scenes.Newton(boxFrames), end: boxFrames},
		{name: "static-umbra", sc: slab, end: umbraFrames, check: func(t *testing.T, e *Engine, rep FrameReport) {
			// A segment a static opaque object blocks is not registered:
			// while the ball moves over the slab, no pixel of the slab's
			// umbra is traced again, though the ball crosses the segments
			// of some of them. A segment only the ball blocks is: its
			// shadow in the open (phase c) must follow it.
			if umbra == nil {
				umbra = umbraPixels(t, slab, 0, 4)
			}
			if rep.Frame > 0 && rep.Rendered == 0 {
				t.Errorf("frame %d: nothing traced while the ball moves in view", rep.Frame)
			}
			if rep.Frame == 0 || rep.Frame >= 4 {
				return
			}
			for _, s := range e.LastSpans() {
				for x := s.X0; x < s.X1; x++ {
					if umbra[s.Y*tw+x] {
						t.Fatalf("frame %d: umbra pixel (%d,%d) traced again while the ball moves over the slab", rep.Frame, x, s.Y)
					}
				}
			}
		}},
	}
}

func TestMotionBoxPixelIdentical(t *testing.T) {
	full := fb.NewRect(0, 0, tw, th)
	for _, c := range boxCases() {
		var want []*fb.Framebuffer
		if _, err := FullRender(c.sc, tw, th, full, c.start, c.end, 1,
			func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
				want = append(want, img.Clone())
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		shows := c.still || len(want) == 1
		for f := 1; f < len(want); f++ {
			shows = shows || !want[f].Equal(want[f-1])
		}
		if !shows {
			t.Errorf("%s: no frame differs from the one before it; the case tests nothing", c.name)
		}
		for _, threads := range []int{1, 8} {
			e, err := NewEngine(c.sc, tw, th, full, c.start, c.end, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			checkMoversInsideGrid(t, c.name, e)
			copied := 0
			for f := c.start; f < c.end; f++ {
				img := fb.New(tw, th)
				rep, err := e.RenderFrame(f, img)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !img.Equal(want[f-c.start]) {
					t.Errorf("%s threads %d frame %d: %d pixels differ from the plain render",
						c.name, threads, f, img.DiffCount(want[f-c.start]))
				}
				copied += rep.Copied
				if c.check != nil {
					c.check(t, e, rep)
				}
			}
			if e.Grid() != nil && !c.everything && copied == 0 {
				t.Errorf("%s threads %d: coherence copied no pixel", c.name, threads)
			}
		}
	}
}

// checkMoversInsideGrid is the invariant the clipped grid rests on: at
// every frame of the range every (bounded) mover lies inside the grid, so
// a voxel it enters or leaves is a voxel of the grid. The grid's box is
// also, bit for bit, the movers' padded swept box clipped to the
// sequence's Scene.BoundsAt, which layGrid computes only for an unbounded
// mover.
func checkMoversInsideGrid(t *testing.T, name string, e *Engine) {
	t.Helper()
	if e.grid == nil {
		return
	}
	swept, seq := vm.EmptyAABB(), vm.EmptyAABB()
	for f := e.rng.start; f < e.rng.end; f++ {
		for _, m := range e.rng.movers {
			swept = swept.Union(m.BoundsAt(f))
		}
		seq = seq.Union(e.rng.sc.BoundsAt(f))
	}
	swept = swept.Pad(1e-3)
	if clipped := (vm.AABB{Min: swept.Min.Max(seq.Min), Max: swept.Max.Min(seq.Max)}); e.grid.Bounds() != clipped {
		t.Errorf("%s: grid spans %v, the clipped swept box is %v", name, e.grid.Bounds(), clipped)
	}
	for _, m := range e.rng.movers {
		for f := e.rng.start; f < e.rng.end; f++ {
			b, g := m.BoundsAt(f), e.grid.Bounds()
			if b.Size().MaxComponent() >= geom.HugeExtent {
				continue
			}
			if !g.Contains(b.Min) || !g.Contains(b.Max) {
				t.Errorf("%s: %s at frame %d spans %v, outside the grid %v", name, m.Name, f, b, g)
			}
		}
	}
}

// umbraFrames is the length of umbraScene's animation: four frames of
// each phase.
const umbraFrames = 12

// umbraScene hangs a static opaque slab between the floor and a light
// straight above it, and moves a ball (a) over the slab, between it and
// the light, then (b) under the slab, in its umbra, then (c) out into the
// open, floating, where the ball's own shadow moves across the floor. The
// camera sits below the slab and sees the floor beneath it.
func umbraScene() *scene.Scene {
	s := stage("static-umbra", umbraFrames, vm.V(0, 0.7, 7), vm.V(0, 0.6, 0), vm.V(0, 12, 0))
	s.Add("slab", geom.NewBox(vm.V(-2, 1.4, -2), vm.V(2, 1.6, 2)), material.Matte(material.Blue), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 0, 0), 0.6), material.Matte(material.Red),
		scene.FuncTrack{F: func(f int) vm.Transform {
			step := float64(f % 4)
			switch f / 4 {
			case 0:
				return vm.NewTransform(vm.Translate(-1+step*2/3, 2.6, 0))
			case 1:
				return vm.NewTransform(vm.Translate(-1+step*2/3, 0.6, 0))
			}
			return vm.NewTransform(vm.Translate(2.9+step/4, 1.2, 0))
		}})
	return s
}

// umbraPixels marks the pixels that see the floor in every frame of
// [start, end) at a point whose segment to the light crosses the slab,
// and fails unless there are at least 100.
func umbraPixels(t *testing.T, sc *scene.Scene, start, end int) []bool {
	t.Helper()
	var slab *scene.Object
	for _, o := range sc.Objects {
		if o.Name == "slab" {
			slab = o
		}
	}
	umbra := make([]bool, tw*th)
	for i := range umbra {
		umbra[i] = true
	}
	for f := start; f < end; f++ {
		ft, err := trace.New(sc, f, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		lp := sc.Lights[0].PosAt(f)
		for i := range umbra {
			h, ro, ok := ft.Intersect(ft.CameraRay(i%tw, i/tw, tw, th, 0.5, 0.5), vm.ShadowEps, math.Inf(1))
			if !ok || ro.Obj.Name != "floor" {
				umbra[i] = false
				continue
			}
			p := h.Point.Add(h.Normal.Scale(vm.ShadowEps))
			d := lp.Sub(p)
			seg := vm.Ray{Origin: p, Dir: d.Norm()}
			if _, _, blocked := slab.Shape.IntersectT(seg, vm.ShadowEps, d.Len()-vm.ShadowEps); !blocked {
				umbra[i] = false
			}
		}
	}
	n := 0
	for _, u := range umbra {
		if u {
			n++
		}
	}
	if n < 100 {
		t.Fatalf("the slab's umbra covers %d pixels, want at least 100", n)
	}
	return umbra
}
