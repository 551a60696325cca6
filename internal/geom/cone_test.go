package geom

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

func TestConeLateralHit(t *testing.T) {
	// Frustum from radius 1 at y=0 to radius 0 at y=2 (a true cone).
	c := NewCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 0)
	// At height y=1 the radius is 0.5; a horizontal ray at y=1 grazes
	// the surface at x=-0.5.
	r := vm.Ray{Origin: vm.V(-5, 1, 0), Dir: vm.V(1, 0, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed cone side")
	}
	if math.Abs(h.T-4.5) > 1e-9 {
		t.Errorf("T = %v, want 4.5", h.T)
	}
	// The lateral normal tilts upward for a narrowing cone (k<0 so
	// outward = radial - k*axis has positive Y component).
	if h.Normal.X >= 0 || h.Normal.Y <= 0 {
		t.Errorf("normal = %v, want -x and +y components", h.Normal)
	}
	if math.Abs(h.Normal.Len()-1) > 1e-12 {
		t.Error("normal not unit")
	}
}

func TestConeApexMiss(t *testing.T) {
	c := NewCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 0)
	// Above the apex: no surface.
	r := vm.Ray{Origin: vm.V(-5, 2.5, 0), Dir: vm.V(1, 0, 0)}
	if _, ok := Intersect(c, r, 0, inf); ok {
		t.Error("hit above apex")
	}
}

func TestConeBaseCapHit(t *testing.T) {
	c := NewCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 0.25)
	// Downward ray inside the cap radius hits the top disc at y=2.
	r := vm.Ray{Origin: vm.V(0.1, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed cap")
	}
	if math.Abs(h.T-3) > 1e-9 {
		t.Errorf("T = %v, want 3", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(0, 1, 0), 1e-12) {
		t.Errorf("cap normal = %v", h.Normal)
	}
	// Ray down outside cap radius but inside base radius: hits the
	// slanted side below.
	r = vm.Ray{Origin: vm.V(0.6, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok = Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed side from above")
	}
	// r(h) = 1 - 0.375h = 0.6 => h = 1.0667, so T = 5 - 1.0667.
	wantH := (1 - 0.6) / 0.375
	if math.Abs(h.Point.Y-wantH) > 1e-9 {
		t.Errorf("side hit at y=%v, want %v", h.Point.Y, wantH)
	}
}

func TestOpenConeNoCapHit(t *testing.T) {
	c := NewOpenCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 0.25)
	r := vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}
	if _, ok := Intersect(c, r, 0, inf); ok {
		t.Error("open cone reported axis hit")
	}
}

func TestConeZeroBaseRadiusCapOnly(t *testing.T) {
	// Inverted cone: apex at base.
	c := NewCone(vm.V(0, 0, 0), 0, vm.V(0, 2, 0), 1)
	r := vm.Ray{Origin: vm.V(0.2, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed inverted cone cap")
	}
	if math.Abs(h.T-3) > 1e-9 {
		t.Errorf("T = %v", h.T)
	}
}

func TestConeDegeneratesToCylinder(t *testing.T) {
	// Equal radii: behaves exactly like a cylinder.
	cone := NewCone(vm.V(0, 0, 0), 0.5, vm.V(0, 2, 0), 0.5)
	cyl := NewCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	rng := vm.NewRNG(77)
	for i := 0; i < 500; i++ {
		o := vm.V(rng.InRange(-3, 3), rng.InRange(-1, 3), rng.InRange(-3, 3))
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		if d.Len() < 0.1 {
			continue
		}
		r := vm.Ray{Origin: o, Dir: d.Norm()}
		h1, ok1 := Intersect(cone, r, 1e-9, inf)
		h2, ok2 := Intersect(cyl, r, 1e-9, inf)
		if ok1 != ok2 {
			t.Fatalf("trial %d: cone hit=%v cylinder hit=%v for %+v", i, ok1, ok2, r)
		}
		if ok1 && math.Abs(h1.T-h2.T) > 1e-9 {
			t.Fatalf("trial %d: T cone=%v cylinder=%v", i, h1.T, h2.T)
		}
	}
}

func TestConeBoundsContainSurface(t *testing.T) {
	c := NewCone(vm.V(1, 0, -1), 0.8, vm.V(-1, 2, 1), 0.2)
	b := c.Bounds()
	onb := vm.NewONB(c.Cap.Sub(c.Base))
	for i := 0; i < 24; i++ {
		ang := float64(i) / 24 * 2 * math.Pi
		for _, s := range []float64{0, 0.5, 1} {
			rad := c.BaseRadius + (c.CapRadius-c.BaseRadius)*s
			axisPt := c.Base.Lerp(c.Cap, s)
			p := axisPt.Add(onb.Local(math.Cos(ang)*rad, math.Sin(ang)*rad, 0))
			if !b.Pad(1e-9).Contains(p) {
				t.Fatalf("surface point %v outside bounds %v", p, b)
			}
		}
	}
}

func TestConeOverlapsBox(t *testing.T) {
	c := NewCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 0)
	if !c.OverlapsBox(vm.NewAABB(vm.V(-0.1, 0.9, -0.1), vm.V(0.1, 1.1, 0.1))) {
		t.Error("box on axis not overlapping")
	}
	if c.OverlapsBox(vm.NewAABB(vm.V(5, 5, 5), vm.V(6, 6, 6))) {
		t.Error("distant box overlapping")
	}
}

func TestConeInsideHit(t *testing.T) {
	c := NewCone(vm.V(0, 0, 0), 1, vm.V(0, 2, 0), 1)
	r := vm.Ray{Origin: vm.V(0, 1, 0), Dir: vm.V(1, 0, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed from inside")
	}
	if !h.Inside {
		t.Error("inside hit not flagged")
	}
	if !h.Normal.ApproxEq(vm.V(-1, 0, 0), 1e-9) {
		t.Errorf("normal = %v", h.Normal)
	}
}
