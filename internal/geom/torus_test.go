package geom

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

func TestTorusAxisRayMisses(t *testing.T) {
	to := NewTorus(2, 0.5)
	// Straight down the axis through the hole.
	r := vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}
	if _, ok := Intersect(to, r, 0, inf); ok {
		t.Error("axis ray hit the torus (should pass through the hole)")
	}
}

func TestTorusEquatorialHit(t *testing.T) {
	to := NewTorus(2, 0.5)
	// Along +X through the tube: enters at x=-2.5.
	r := vm.Ray{Origin: vm.V(-5, 0, 0), Dir: vm.V(1, 0, 0)}
	h, ok := Intersect(to, r, 0, inf)
	if !ok {
		t.Fatal("missed torus")
	}
	if math.Abs(h.T-2.5) > 1e-6 {
		t.Errorf("T = %v, want 2.5", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(-1, 0, 0), 1e-6) {
		t.Errorf("normal = %v", h.Normal)
	}
}

func TestTorusTopHit(t *testing.T) {
	to := NewTorus(2, 0.5)
	// Straight down onto the top of the tube at x=2.
	r := vm.Ray{Origin: vm.V(2, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(to, r, 0, inf)
	if !ok {
		t.Fatal("missed tube top")
	}
	if math.Abs(h.Point.Y-0.5) > 1e-6 {
		t.Errorf("hit y = %v, want 0.5", h.Point.Y)
	}
	if !h.Normal.ApproxEq(vm.V(0, 1, 0), 1e-6) {
		t.Errorf("normal = %v", h.Normal)
	}
}

func TestTorusHolePassThrough(t *testing.T) {
	to := NewTorus(2, 0.5)
	// Offset from the axis but still inside the hole radius (R-r = 1.5).
	r := vm.Ray{Origin: vm.V(1.0, 5, 0), Dir: vm.V(0, -1, 0)}
	if _, ok := Intersect(to, r, 0, inf); ok {
		t.Error("ray through the hole hit the torus")
	}
}

func TestTorusInsideTube(t *testing.T) {
	to := NewTorus(2, 0.5)
	// Start inside the tube at (2,0,0).
	r := vm.Ray{Origin: vm.V(2, 0, 0), Dir: vm.V(1, 0, 0)}
	h, ok := Intersect(to, r, 1e-9, inf)
	if !ok {
		t.Fatal("missed from inside tube")
	}
	if !h.Inside {
		t.Error("inside hit not flagged")
	}
	if math.Abs(h.T-0.5) > 1e-6 {
		t.Errorf("T = %v, want 0.5", h.T)
	}
}

func TestTorusHitPointsOnSurface(t *testing.T) {
	to := NewTorus(1.5, 0.4)
	surface := func(p vm.Vec3) float64 {
		ring := math.Hypot(p.X, p.Z)
		return math.Hypot(ring-to.Major, p.Y) - to.Minor
	}
	rng := vm.NewRNG(31)
	hits := 0
	for i := 0; i < 2000; i++ {
		o := vm.V(rng.InRange(-4, 4), rng.InRange(-3, 3), rng.InRange(-4, 4))
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		if d.Len() < 0.1 {
			continue
		}
		h, ok := Intersect(to, vm.Ray{Origin: o, Dir: d.Norm()}, 1e-9, inf)
		if !ok {
			continue
		}
		hits++
		if sd := surface(h.Point); math.Abs(sd) > 1e-5 {
			t.Fatalf("hit point %v off surface by %v", h.Point, sd)
		}
		if h.Normal.Dot(d.Norm()) > 1e-9 {
			t.Fatalf("normal faces along the ray at %v", h.Point)
		}
	}
	if hits < 100 {
		t.Errorf("only %d hits in 2000 rays; sampling broken?", hits)
	}
}

func TestTorusBounds(t *testing.T) {
	to := NewTorus(2, 0.5)
	b := to.Bounds()
	want := vm.NewAABB(vm.V(-2.5, -0.5, -2.5), vm.V(2.5, 0.5, 2.5))
	if b != want {
		t.Errorf("bounds = %v", b)
	}
}

func TestTorusTransformed(t *testing.T) {
	// A torus stood upright (rotated 90° about X) and translated.
	to := NewTorus(1, 0.25)
	xf := vm.NewTransform(vm.Translate(0, 2, 0).MulM(vm.RotateX(math.Pi / 2)))
	tw := NewTransformed(to, xf)
	// The ring now lies in the XY plane at height 2: a ray along +Z
	// through (1, 2) hits the tube.
	r := vm.Ray{Origin: vm.V(1, 2, -5), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(tw, r, 0, inf)
	if !ok {
		t.Fatal("missed transformed torus")
	}
	if math.Abs(h.T-4.75) > 1e-6 {
		t.Errorf("T = %v, want 4.75", h.T)
	}
}

func TestTorusOverlapsBox(t *testing.T) {
	to := NewTorus(2, 0.5)
	if !to.OverlapsBox(vm.NewAABB(vm.V(1.8, -0.2, -0.2), vm.V(2.2, 0.2, 0.2))) {
		t.Error("box on tube not overlapping")
	}
	if to.OverlapsBox(vm.NewAABB(vm.V(-0.3, -0.3, -0.3), vm.V(0.3, 0.3, 0.3))) {
		t.Error("box in hole centre overlapping")
	}
}
