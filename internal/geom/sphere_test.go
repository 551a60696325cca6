package geom

import (
	"math"
	"testing"
	"testing/quick"

	vm "nowrender/internal/vecmath"
)

const inf = math.MaxFloat64

func TestSphereHitFront(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	r := vm.Ray{Origin: vm.V(0, 0, -5), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(s, r, 0, inf)
	if !ok {
		t.Fatal("missed sphere")
	}
	if math.Abs(h.T-4) > 1e-12 {
		t.Errorf("T = %v, want 4", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(0, 0, -1), 1e-12) {
		t.Errorf("normal = %v", h.Normal)
	}
	if h.Inside {
		t.Error("front hit flagged inside")
	}
}

func TestSphereHitFromInside(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	r := vm.Ray{Origin: vm.V(0, 0, 0), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(s, r, 0, inf)
	if !ok {
		t.Fatal("missed from inside")
	}
	if math.Abs(h.T-1) > 1e-12 {
		t.Errorf("T = %v, want 1", h.T)
	}
	if !h.Inside {
		t.Error("inside hit not flagged")
	}
	if !h.Normal.ApproxEq(vm.V(0, 0, -1), 1e-12) {
		t.Errorf("normal should face the ray origin: %v", h.Normal)
	}
}

func TestSphereMiss(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	r := vm.Ray{Origin: vm.V(0, 3, -5), Dir: vm.V(0, 0, 1)}
	if _, ok := Intersect(s, r, 0, inf); ok {
		t.Error("hit reported for missing ray")
	}
	// Behind the origin.
	r = vm.Ray{Origin: vm.V(0, 0, -5), Dir: vm.V(0, 0, -1)}
	if _, ok := Intersect(s, r, 0, inf); ok {
		t.Error("hit reported behind ray origin")
	}
}

func TestSphereRespectstMax(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	r := vm.Ray{Origin: vm.V(0, 0, -5), Dir: vm.V(0, 0, 1)}
	if _, ok := Intersect(s, r, 0, 3.9); ok {
		t.Error("hit reported beyond tMax")
	}
	if _, ok := Intersect(s, r, 4.5, inf); !ok {
		// tMin lies between entry (4) and exit (6): should hit exit.
		t.Error("exit hit not found with tMin inside sphere span")
	}
}

func TestSphereGrazing(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	// Ray passing at distance exactly 1-1e-12 (just inside).
	r := vm.Ray{Origin: vm.V(0, 1-1e-9, -5), Dir: vm.V(0, 0, 1)}
	if _, ok := Intersect(s, r, 0, inf); !ok {
		t.Error("grazing ray (just inside) missed")
	}
	r = vm.Ray{Origin: vm.V(0, 1+1e-9, -5), Dir: vm.V(0, 0, 1)}
	if _, ok := Intersect(s, r, 0, inf); ok {
		t.Error("grazing ray (just outside) hit")
	}
}

func TestSphereBounds(t *testing.T) {
	s := NewSphere(vm.V(1, 2, 3), 2)
	b := s.Bounds()
	if b.Min != vm.V(-1, 0, 1) || b.Max != vm.V(3, 4, 5) {
		t.Errorf("bounds = %v", b)
	}
}

// Property: any hit point lies on the sphere surface and within the
// query interval, and the normal faces the ray.
func TestQuickSphereHitOnSurface(t *testing.T) {
	s := NewSphere(vm.V(0.5, -0.5, 2), 1.5)
	rng := vm.NewRNG(99)
	f := func() bool {
		o := vm.V(rng.InRange(-10, 10), rng.InRange(-10, 10), rng.InRange(-10, 10))
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		if d.Len() < 1e-3 {
			return true
		}
		d = d.Norm()
		h, ok := Intersect(s, vm.Ray{Origin: o, Dir: d}, 1e-9, inf)
		if !ok {
			return true
		}
		distFromCenter := h.Point.Dist(s.Center)
		if math.Abs(distFromCenter-s.Radius) > 1e-6 {
			return false
		}
		return h.Normal.Dot(d) <= 1e-9
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatalf("property violated at iteration %d", i)
		}
	}
}

// Property: if a ray from origin o in direction towards a point ON the
// sphere is cast, it must hit.
func TestQuickSphereAimedRaysHit(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	f := func(ox, oy, oz, theta, phi float64) bool {
		if math.IsNaN(ox+oy+oz+theta+phi) || math.IsInf(ox+oy+oz+theta+phi, 0) {
			return true
		}
		o := vm.V(math.Mod(ox, 50), math.Mod(oy, 50), math.Mod(oz, 50))
		if o.Len() <= 1.01 { // origin inside or on sphere: skip
			return true
		}
		// Aim at the sphere centre — guaranteed hit.
		d := s.Center.Sub(o)
		_, ok := Intersect(s, vm.Ray{Origin: o, Dir: d}, 1e-9, inf)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
