// Package scenes procedurally builds the paper's test animations:
//
//   - Newton (§4, Figure 5): a Newton's cradle of five suspended chrome
//     marbles illustrating conservation of energy. Matching the paper's
//     inventory exactly, the scene contains one plane, five spheres and
//     sixteen cylinders, runs 45 frames by default, and keeps the camera
//     stationary.
//   - Bouncing (Figures 1-2): a glass ball bouncing around a brick room,
//     the animation whose consecutive frames and pixel-difference masks
//     the paper shows.
//
// Both scenes have the property the coherence algorithm exploits: only a
// small region changes per frame while expensive static regions
// (reflective marbles, brick walls seen through glass) are reused.
package scenes

import (
	"math"

	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// Newton cradle layout constants.
const (
	marbleRadius = 0.4
	marbleY      = 1.0
	anchorY      = 3.2
	swingMax     = 0.9 // radians
)

// NewtonFrames is the paper's frame count for the Newton run.
const NewtonFrames = 45

// Newton builds the Newton's-cradle animation. frames <= 0 selects the
// paper's 45.
func Newton(frames int) *scene.Scene {
	if frames <= 0 {
		frames = NewtonFrames
	}
	s := scene.New("newton")
	s.Frames = frames
	s.Camera = scene.Camera{
		Pos: vm.V(0, 2.2, 8.5), LookAt: vm.V(0, 1.8, 0), Up: vm.V(0, 1, 0), FOV: 50,
	}
	s.Background = material.RGB(0.05, 0.05, 0.12)
	s.MaxDepth = 5
	s.AddLight("key", vm.V(6, 9, 8), material.RGB(1, 1, 0.96))
	s.AddLight("fill", vm.V(-7, 6, 5), material.RGB(0.25, 0.25, 0.3))

	// The one plane: a checkered floor.
	floorMat := material.NewMaterial(
		material.Checker{A: material.RGB(0.85, 0.85, 0.8), B: material.RGB(0.25, 0.22, 0.2), Size: 1.2},
		material.Finish{Ambient: 0.1, Diffuse: 0.75, Specular: 0.1, Shininess: 20, Reflect: 0.08, IOR: 1},
	)
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floorMat, nil)

	wood := material.NewMaterial(material.Solid{C: material.RGB(0.45, 0.26, 0.12)},
		material.Finish{Ambient: 0.12, Diffuse: 0.7, Specular: 0.25, Shininess: 30, IOR: 1})
	steel := material.NewMaterial(material.Solid{C: material.RGB(0.65, 0.65, 0.7)},
		material.Finish{Ambient: 0.08, Diffuse: 0.4, Specular: 0.5, Shininess: 60, Reflect: 0.15, IOR: 1})
	chrome := material.NewMaterial(material.Solid{C: material.RGB(0.92, 0.93, 0.95)},
		material.ChromeFinish())

	// Frame: 4 legs, 2 top side rails, 2 top end bars, 2 base rails and
	// 1 central crossbar the strings hang from — 11 cylinders.
	leg := func(name string, x, z float64) {
		s.Add(name, geom.NewCylinder(vm.V(x, 0, z), vm.V(x, anchorY, z), 0.09), wood, nil)
	}
	leg("leg-fl", -2.4, 0.8)
	leg("leg-fr", 2.4, 0.8)
	leg("leg-bl", -2.4, -0.8)
	leg("leg-br", 2.4, -0.8)
	s.Add("rail-top-front", geom.NewCylinder(vm.V(-2.4, anchorY, 0.8), vm.V(2.4, anchorY, 0.8), 0.07), wood, nil)
	s.Add("rail-top-back", geom.NewCylinder(vm.V(-2.4, anchorY, -0.8), vm.V(2.4, anchorY, -0.8), 0.07), wood, nil)
	s.Add("bar-top-left", geom.NewCylinder(vm.V(-2.4, anchorY, -0.8), vm.V(-2.4, anchorY, 0.8), 0.07), wood, nil)
	s.Add("bar-top-right", geom.NewCylinder(vm.V(2.4, anchorY, -0.8), vm.V(2.4, anchorY, 0.8), 0.07), wood, nil)
	s.Add("rail-base-front", geom.NewCylinder(vm.V(-2.4, 0.05, 0.8), vm.V(2.4, 0.05, 0.8), 0.06), wood, nil)
	s.Add("rail-base-back", geom.NewCylinder(vm.V(-2.4, 0.05, -0.8), vm.V(2.4, 0.05, -0.8), 0.06), wood, nil)
	s.Add("crossbar", geom.NewCylinder(vm.V(-2.4, anchorY, 0), vm.V(2.4, anchorY, 0), 0.05), steel, nil)

	// Five marbles with their strings — 5 spheres + 5 cylinders = the
	// remaining inventory (16 cylinders total).
	for i := 0; i < 5; i++ {
		x := (float64(i) - 2) * 2 * marbleRadius
		restCenter := vm.V(x, marbleY, 0)
		anchor := vm.V(x, anchorY, 0)
		track := cradleTrack(i, frames, anchor)
		s.Add(marbleName(i), geom.NewSphere(restCenter, marbleRadius), chrome, track)
		s.Add(stringName(i),
			geom.NewCylinder(vm.V(x, marbleY+marbleRadius, 0), anchor, 0.015), steel, track)
	}
	return s
}

func marbleName(i int) string { return "marble" + string(rune('A'+i)) }
func stringName(i int) string { return "string" + string(rune('A'+i)) }

// CradleAngle returns the pendulum angles (radians from vertical) of
// the leftmost and rightmost marbles at a frame. cradleTrack turns a
// positive angle into a swing *inward*, through the middle marbles (the
// leftmost one's centre reaches x = +0.12 from its rest at -1.6), not the
// outward swing of a real cradle. The energy alternates between the end
// marbles each half period while the middle three stay still.
func CradleAngle(frame, frames int) (left, right float64) {
	halfPeriod := 15.0
	if frames < 30 {
		halfPeriod = float64(frames) / 3.0
	}
	a := swingMax * math.Cos(math.Pi*float64(frame)/halfPeriod)
	if a > 0 {
		return a, 0
	}
	return 0, -a
}

// cradleTrack returns the swing transform of marble/string i about its
// anchor point. Middle marbles (1..3) are static.
func cradleTrack(i, frames int, anchor vm.Vec3) scene.Track {
	if i >= 1 && i <= 3 {
		return nil
	}
	return scene.FuncTrack{F: func(frame int) vm.Transform {
		left, right := CradleAngle(frame, frames)
		var angle float64
		if i == 0 {
			angle = left // positive rotation about +z: the marble swings to +x, inward
		} else {
			angle = -right // swings to -x, inward too
		}
		if angle == 0 {
			return vm.IdentityTransform()
		}
		m := vm.TranslateV(anchor).
			MulM(vm.RotateZ(angle)).
			MulM(vm.TranslateV(anchor.Neg()))
		return vm.NewTransform(m)
	}}
}

// BouncingFrames is the default frame count for the bouncing-ball scene.
const BouncingFrames = 30

// Bouncing builds the glass-ball-in-a-brick-room animation of Figure 1.
func Bouncing(frames int) *scene.Scene {
	if frames <= 0 {
		frames = BouncingFrames
	}
	s := scene.New("bouncing")
	s.Frames = frames
	s.Camera = scene.Camera{
		Pos: vm.V(0, 2.5, 9), LookAt: vm.V(0, 1.5, 0), Up: vm.V(0, 1, 0), FOV: 60,
	}
	s.Background = material.RGB(0.02, 0.02, 0.05)
	s.MaxDepth = 5
	s.AddLight("ceiling", vm.V(0, 7.5, 4), material.RGB(1, 1, 0.95))
	s.AddLight("corner", vm.V(-4, 5, 7), material.RGB(0.3, 0.3, 0.35))

	brick := material.NewMaterial(
		material.Brick{
			Mortar: material.RGB(0.75, 0.73, 0.7), Body: material.RGB(0.55, 0.2, 0.13),
			BrickSize: vm.V(1.0, 0.33, 0.55), MortarWidth: 0.06,
		},
		material.Finish{Ambient: 0.12, Diffuse: 0.8, Specular: 0.05, Shininess: 10, IOR: 1},
	)
	floor := material.NewMaterial(material.Solid{C: material.RGB(0.5, 0.47, 0.42)},
		material.Finish{Ambient: 0.1, Diffuse: 0.7, Specular: 0.15, Shininess: 25, Reflect: 0.1, IOR: 1})

	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	s.Add("ceiling", geom.NewPlane(vm.V(0, -1, 0), -8), floor, nil)
	s.Add("wall-back", geom.NewPlane(vm.V(0, 0, 1), -4), brick, nil)
	s.Add("wall-left", geom.NewPlane(vm.V(1, 0, 0), -6), brick, nil)
	s.Add("wall-right", geom.NewPlane(vm.V(-1, 0, 0), -6), brick, nil)

	glass := material.NewMaterial(material.Solid{C: material.RGB(0.98, 0.98, 1)},
		material.GlassFinish())
	s.Add("ball", geom.NewSphere(vm.V(0, 0, 0), 0.8), glass,
		scene.FuncTrack{F: func(frame int) vm.Transform {
			return vm.NewTransform(vm.TranslateV(BouncePosition(frame, frames)))
		}})
	return s
}

// BouncePosition returns the glass ball's centre at a frame: a damped
// parabolic bounce drifting across the room.
func BouncePosition(frame, frames int) vm.Vec3 {
	t := float64(frame) / float64(max(frames-1, 1))
	// Three bounces across the animation, each losing height.
	const bounces = 3
	phase := t * bounces
	n := math.Floor(phase)
	u := phase - n // position within this bounce, 0..1
	height := 3.0 * math.Pow(0.62, n)
	y := 0.8 + height*4*u*(1-u) // parabola through the bounce
	x := -3.5 + 7*t
	z := 1.5 - 2.5*t
	return vm.V(x, y, z)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Quickstart is a tiny single-frame scene for the quickstart example and
// smoke tests: one matte sphere on a checkered floor.
func Quickstart() *scene.Scene {
	s := scene.New("quickstart")
	s.Frames = 1
	s.Camera = scene.Camera{Pos: vm.V(0, 1.5, 6), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Background = material.RGB(0.2, 0.3, 0.5)
	floor := material.NewMaterial(material.Checker{A: material.White, B: material.RGB(0.1, 0.1, 0.1)},
		material.DefaultFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.RGB(0.9, 0.2, 0.15)), nil)
	s.AddLight("key", vm.V(4, 7, 6), material.White)
	return s
}
