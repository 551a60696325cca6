package trace

import (
	"math"
	"testing"

	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// randomScene builds a scene with randomly placed primitives of every
// kind and random (bounded) material parameters.
func randomScene(seed uint64) *scene.Scene {
	rng := vm.NewRNG(seed)
	s := scene.New("fuzz")
	s.Camera = scene.Camera{
		Pos:    vm.V(rng.InRange(-2, 2), rng.InRange(1, 4), rng.InRange(6, 10)),
		LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: rng.InRange(30, 80),
	}
	s.Background = vm.V(rng.Float64()*0.3, rng.Float64()*0.3, rng.Float64()*0.3)
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	n := 3 + rng.Intn(8)
	for i := 0; i < n; i++ {
		c := vm.V(rng.InRange(-4, 4), rng.InRange(0.2, 3), rng.InRange(-4, 2))
		fin := material.Finish{
			Ambient: rng.Float64() * 0.2, Diffuse: rng.Float64(),
			Specular: rng.Float64(), Shininess: rng.InRange(1, 200),
			Reflect: rng.Float64() * 0.8, Transmit: rng.Float64() * 0.8,
			IOR: rng.InRange(1, 2),
		}
		mat := material.NewMaterial(material.Solid{C: vm.V(rng.Float64(), rng.Float64(), rng.Float64())}, fin)
		switch rng.Intn(6) {
		case 0:
			s.Add("s", geom.NewSphere(c, rng.InRange(0.2, 1)), mat, nil)
		case 1:
			s.Add("b", geom.NewBox(c, c.Add(vm.V(rng.InRange(0.2, 1), rng.InRange(0.2, 1), rng.InRange(0.2, 1)))), mat, nil)
		case 2:
			s.Add("c", geom.NewCylinder(c, c.Add(vm.V(0, rng.InRange(0.3, 1.5), 0)), rng.InRange(0.1, 0.5)), mat, nil)
		case 3:
			s.Add("k", geom.NewCone(c, rng.InRange(0.2, 0.8), c.Add(vm.V(0, rng.InRange(0.3, 1.5), 0)), rng.Float64()*0.3), mat, nil)
		case 4:
			xf := vm.NewTransform(vm.TranslateV(c))
			s.Add("t", geom.NewTransformed(geom.NewTorus(rng.InRange(0.3, 0.8), rng.InRange(0.05, 0.25)), xf), mat, nil)
		default:
			s.Add("d", geom.NewDisc(c, vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1)), rng.InRange(0.3, 1)), mat, nil)
		}
	}
	l := s.AddLight("key", vm.V(rng.InRange(-6, 6), rng.InRange(5, 10), rng.InRange(2, 8)), material.White)
	if rng.Intn(2) == 0 {
		l.Spot = &scene.Spotlight{PointAt: vm.V(0, 0, 0), Radius: rng.InRange(10, 30), Falloff: rng.InRange(31, 60)}
	}
	if rng.Intn(2) == 0 {
		l.FadeDistance = rng.InRange(3, 15)
		l.FadePower = rng.InRange(1, 3)
	}
	return s
}

// Property: over random scenes with every primitive and material class,
// every traced pixel is finite and non-negative — no NaN leaks from any
// intersection or shading path.
func TestFuzzShadingFiniteAndNonNegative(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := randomScene(seed)
		ft, err := New(s, 0, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for y := 0; y < 24; y++ {
			for x := 0; x < 32; x++ {
				c := ft.TracePixel(x, y, 32, 24)
				if !c.IsFinite() {
					t.Fatalf("seed %d pixel (%d,%d): non-finite colour %v", seed, x, y, c)
				}
				if c.X < 0 || c.Y < 0 || c.Z < 0 {
					t.Fatalf("seed %d pixel (%d,%d): negative colour %v", seed, x, y, c)
				}
			}
		}
	}
}

// Property: grid-accelerated intersection agrees with brute force on
// random scenes including tori and transformed shapes.
func TestFuzzGridIntersectAgreesBruteForce(t *testing.T) {
	for seed := uint64(30); seed <= 36; seed++ {
		s := randomScene(seed)
		ft, err := New(s, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		objs := ft.Objects()
		rng := vm.NewRNG(seed * 977)
		for trial := 0; trial < 400; trial++ {
			o := vm.V(rng.InRange(-6, 6), rng.InRange(-1, 6), rng.InRange(-6, 10))
			d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
			if d.Len() < 0.05 {
				continue
			}
			r := vm.Ray{Origin: o, Dir: d.Norm()}
			bestT := math.Inf(1)
			hitAny := false
			for _, ro := range objs {
				if h, ok := geom.Intersect(ro.Shape, r, vm.ShadowEps, bestT); ok {
					bestT = h.T
					hitAny = true
				}
			}
			h, _, ok := ft.Intersect(r, vm.ShadowEps, math.Inf(1))
			if ok != hitAny {
				t.Fatalf("seed %d trial %d: grid=%v brute=%v for %+v", seed, trial, ok, hitAny, r)
			}
			if ok && math.Abs(h.T-bestT) > 1e-6 {
				t.Fatalf("seed %d trial %d: T grid=%v brute=%v", seed, trial, h.T, bestT)
			}
		}
	}
}
