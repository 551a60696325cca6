package geom

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

func TestPlaneHit(t *testing.T) {
	// Floor: y = 0, normal +Y.
	p := NewPlane(vm.V(0, 1, 0), 0)
	r := vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(p, r, 0, inf)
	if !ok {
		t.Fatal("missed plane")
	}
	if math.Abs(h.T-5) > 1e-12 {
		t.Errorf("T = %v", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(0, 1, 0), 1e-12) {
		t.Errorf("normal = %v", h.Normal)
	}
}

func TestPlaneOffset(t *testing.T) {
	// Plane y = 2.
	p := NewPlane(vm.V(0, 1, 0), 2)
	r := vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(p, r, 0, inf)
	if !ok || math.Abs(h.T-3) > 1e-12 {
		t.Fatalf("offset plane: ok=%v T=%v", ok, h.T)
	}
}

func TestPlaneParallelMiss(t *testing.T) {
	p := NewPlane(vm.V(0, 1, 0), 0)
	r := vm.Ray{Origin: vm.V(0, 1, 0), Dir: vm.V(1, 0, 0)}
	if _, ok := Intersect(p, r, 0, inf); ok {
		t.Error("parallel ray hit plane")
	}
}

func TestPlaneFromBelowFlipsNormal(t *testing.T) {
	p := NewPlane(vm.V(0, 1, 0), 0)
	r := vm.Ray{Origin: vm.V(0, -3, 0), Dir: vm.V(0, 1, 0)}
	h, ok := Intersect(p, r, 0, inf)
	if !ok {
		t.Fatal("missed plane from below")
	}
	if !h.Normal.ApproxEq(vm.V(0, -1, 0), 1e-12) {
		t.Errorf("normal not flipped: %v", h.Normal)
	}
	if !h.Inside {
		t.Error("below-side hit not flagged inside")
	}
}

func TestPlaneNonUnitNormalNormalised(t *testing.T) {
	p := NewPlane(vm.V(0, 10, 0), 1)
	if math.Abs(p.Normal.Len()-1) > 1e-12 {
		t.Error("constructor did not normalise")
	}
	// Plane y = 1.
	r := vm.Ray{Origin: vm.V(0, 3, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(p, r, 0, inf)
	if !ok || math.Abs(h.T-2) > 1e-12 {
		t.Fatalf("ok=%v T=%v, want T=2", ok, h.T)
	}
}

func TestBoxHitFaces(t *testing.T) {
	b := NewBox(vm.V(-1, -1, -1), vm.V(1, 1, 1))
	cases := []struct {
		origin, dir, wantN vm.Vec3
	}{
		{vm.V(-5, 0, 0), vm.V(1, 0, 0), vm.V(-1, 0, 0)},
		{vm.V(5, 0, 0), vm.V(-1, 0, 0), vm.V(1, 0, 0)},
		{vm.V(0, 5, 0), vm.V(0, -1, 0), vm.V(0, 1, 0)},
		{vm.V(0, 0, -5), vm.V(0, 0, 1), vm.V(0, 0, -1)},
	}
	for i, c := range cases {
		h, ok := Intersect(b, vm.Ray{Origin: c.origin, Dir: c.dir}, 0, inf)
		if !ok {
			t.Fatalf("case %d: missed", i)
		}
		if !h.Normal.ApproxEq(c.wantN, 1e-12) {
			t.Errorf("case %d: normal %v, want %v", i, h.Normal, c.wantN)
		}
		if math.Abs(h.T-4) > 1e-9 {
			t.Errorf("case %d: T = %v, want 4", i, h.T)
		}
	}
}

func TestBoxFromInside(t *testing.T) {
	b := NewBox(vm.V(-1, -1, -1), vm.V(1, 1, 1))
	h, ok := Intersect(b, vm.Ray{Origin: vm.V(0, 0, 0), Dir: vm.V(1, 0, 0)}, 0, inf)
	if !ok {
		t.Fatal("missed from inside")
	}
	if !h.Inside {
		t.Error("inside hit not flagged")
	}
	if math.Abs(h.T-1) > 1e-12 {
		t.Errorf("T = %v", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(-1, 0, 0), 1e-12) {
		t.Errorf("normal should oppose ray: %v", h.Normal)
	}
}

func TestBoxCornersOrdered(t *testing.T) {
	b := NewBox(vm.V(1, 1, 1), vm.V(-1, -1, -1))
	if b.Min != vm.V(-1, -1, -1) || b.Max != vm.V(1, 1, 1) {
		t.Errorf("corners not ordered: %+v", b)
	}
}

func TestDiscHitAndMiss(t *testing.T) {
	d := NewDisc(vm.V(0, 0, 0), vm.V(0, 1, 0), 2)
	h, ok := Intersect(d, vm.Ray{Origin: vm.V(1, 5, 1), Dir: vm.V(0, -1, 0)}, 0, inf)
	if !ok {
		t.Fatal("missed disc inside radius")
	}
	if math.Abs(h.T-5) > 1e-12 {
		t.Errorf("T = %v", h.T)
	}
	if _, ok := Intersect(d, vm.Ray{Origin: vm.V(2, 5, 2), Dir: vm.V(0, -1, 0)}, 0, inf); ok {
		t.Error("hit outside radius (r=2, dist=2.83)")
	}
}

func TestCylinderLateralHit(t *testing.T) {
	c := NewCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	r := vm.Ray{Origin: vm.V(-5, 1, 0), Dir: vm.V(1, 0, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed cylinder side")
	}
	if math.Abs(h.T-4.5) > 1e-12 {
		t.Errorf("T = %v, want 4.5", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(-1, 0, 0), 1e-12) {
		t.Errorf("normal = %v", h.Normal)
	}
}

func TestCylinderCapHit(t *testing.T) {
	c := NewCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	r := vm.Ray{Origin: vm.V(0.2, 5, 0), Dir: vm.V(0, -1, 0)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed top cap")
	}
	if math.Abs(h.T-3) > 1e-12 {
		t.Errorf("T = %v, want 3 (top cap at y=2)", h.T)
	}
	if !h.Normal.ApproxEq(vm.V(0, 1, 0), 1e-12) {
		t.Errorf("cap normal = %v", h.Normal)
	}
}

func TestOpenCylinderNoCapHit(t *testing.T) {
	c := NewOpenCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	// Straight down the axis: passes through the open ends, hitting
	// nothing (lateral surface is at radius 0.5, ray is on the axis).
	r := vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}
	if _, ok := Intersect(c, r, 0, inf); ok {
		t.Error("open cylinder reported axis hit")
	}
}

func TestCylinderBeyondHeightMiss(t *testing.T) {
	c := NewCylinder(vm.V(0, 0, 0), vm.V(0, 2, 0), 0.5)
	r := vm.Ray{Origin: vm.V(-5, 3, 0), Dir: vm.V(1, 0, 0)}
	if _, ok := Intersect(c, r, 0, inf); ok {
		t.Error("hit above cylinder height")
	}
}

func TestCylinderSlantedAxis(t *testing.T) {
	// Diagonal cylinder; fire a ray that must cross its midpoint.
	c := NewCylinder(vm.V(0, 0, 0), vm.V(2, 2, 0), 0.3)
	mid := vm.V(1, 1, 0)
	r := vm.Ray{Origin: vm.V(1, 1, -5), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(c, r, 0, inf)
	if !ok {
		t.Fatal("missed slanted cylinder through midpoint")
	}
	if h.Point.Dist(mid) > 0.31 {
		t.Errorf("hit point %v too far from axis midpoint", h.Point)
	}
}

func TestCylinderBoundsContainSurface(t *testing.T) {
	c := NewCylinder(vm.V(1, 0, -1), vm.V(-1, 3, 2), 0.7)
	b := c.Bounds()
	// Sample points on the lateral surface; all must be inside bounds.
	onb := vm.NewONB(c.Cap.Sub(c.Base))
	for i := 0; i < 32; i++ {
		ang := float64(i) / 32 * 2 * math.Pi
		for _, s := range []float64{0, 0.5, 1} {
			axisPt := c.Base.Lerp(c.Cap, s)
			p := axisPt.Add(onb.Local(math.Cos(ang)*c.Radius, math.Sin(ang)*c.Radius, 0))
			if !b.Pad(1e-9).Contains(p) {
				t.Fatalf("surface point %v outside bounds %v", p, b)
			}
		}
	}
}

func TestTriangleHit(t *testing.T) {
	tr := NewTriangle(vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 1, 0))
	r := vm.Ray{Origin: vm.V(0.25, 0.25, -1), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(tr, r, 0, inf)
	if !ok {
		t.Fatal("missed triangle interior")
	}
	if math.Abs(h.T-1) > 1e-12 {
		t.Errorf("T = %v", h.T)
	}
	if math.Abs(math.Abs(h.Normal.Z)-1) > 1e-12 {
		t.Errorf("normal = %v", h.Normal)
	}
}

func TestTriangleEdgeAndOutside(t *testing.T) {
	tr := NewTriangle(vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 1, 0))
	// Outside the hypotenuse.
	r := vm.Ray{Origin: vm.V(0.8, 0.8, -1), Dir: vm.V(0, 0, 1)}
	if _, ok := Intersect(tr, r, 0, inf); ok {
		t.Error("hit outside triangle")
	}
	// Parallel to the plane.
	r = vm.Ray{Origin: vm.V(0, 0, -1), Dir: vm.V(1, 0, 0)}
	if _, ok := Intersect(tr, r, 0, inf); ok {
		t.Error("parallel ray hit triangle")
	}
}

func TestSmoothTriangleInterpolatesNormal(t *testing.T) {
	tr := NewSmoothTriangle(
		vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 1, 0),
		vm.V(0, 0, 1), vm.V(1, 0, 1), vm.V(0, 1, 1),
	)
	r := vm.Ray{Origin: vm.V(0.2, 0.2, -1), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(tr, r, 0, inf)
	if !ok {
		t.Fatal("missed smooth triangle")
	}
	// Interpolated normal at (u=0.2,v=0.2) is normalize(0.2,0.2,1)... then
	// face-forwarded against +z ray => z component must be negative.
	if h.Normal.Z >= 0 {
		t.Errorf("normal should be flipped towards ray origin: %v", h.Normal)
	}
	if math.Abs(h.Normal.Len()-1) > 1e-12 {
		t.Error("interpolated normal not unit")
	}
}

func TestMeshNearestHit(t *testing.T) {
	m := NewMesh([]*Triangle{
		NewTriangle(vm.V(-1, -1, 2), vm.V(1, -1, 2), vm.V(0, 1, 2)),
		NewTriangle(vm.V(-1, -1, 5), vm.V(1, -1, 5), vm.V(0, 1, 5)),
	})
	r := vm.Ray{Origin: vm.V(0, 0, 0), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(m, r, 0, inf)
	if !ok {
		t.Fatal("missed mesh")
	}
	if math.Abs(h.T-2) > 1e-12 {
		t.Errorf("nearest hit T = %v, want 2", h.T)
	}
}

func TestMeshBounds(t *testing.T) {
	m := NewMesh([]*Triangle{
		NewTriangle(vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 1, 0)),
		NewTriangle(vm.V(0, 0, 3), vm.V(-2, 0, 3), vm.V(0, 5, 3)),
	})
	b := m.Bounds()
	want := vm.NewAABB(vm.V(-2, 0, 0), vm.V(1, 5, 3))
	if !b.Min.ApproxEq(want.Min, 1e-6) || !b.Max.ApproxEq(want.Max, 1e-6) {
		t.Errorf("bounds = %v", b)
	}
}

func TestTransformedTranslatedSphere(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	tw := NewTransformed(s, vm.NewTransform(vm.Translate(5, 0, 0)))
	r := vm.Ray{Origin: vm.V(5, 0, -4), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(tw, r, 0, inf)
	if !ok {
		t.Fatal("missed translated sphere")
	}
	if math.Abs(h.T-3) > 1e-12 {
		t.Errorf("T = %v", h.T)
	}
	if !h.Point.ApproxEq(vm.V(5, 0, -1), 1e-9) {
		t.Errorf("point = %v", h.Point)
	}
}

func TestTransformedScaledSphereNormal(t *testing.T) {
	// Unit sphere scaled 2x in Y becomes an ellipsoid; at the equator
	// point (1,0,0) the normal must still be +X after transform.
	s := NewSphere(vm.V(0, 0, 0), 1)
	tw := NewTransformed(s, vm.NewTransform(vm.Scaling(1, 2, 1)))
	r := vm.Ray{Origin: vm.V(5, 0, 0), Dir: vm.V(-1, 0, 0)}
	h, ok := Intersect(tw, r, 0, inf)
	if !ok {
		t.Fatal("missed ellipsoid")
	}
	if !h.Normal.ApproxEq(vm.V(1, 0, 0), 1e-9) {
		t.Errorf("normal = %v", h.Normal)
	}
	if math.Abs(h.Normal.Len()-1) > 1e-12 {
		t.Error("transformed normal not unit")
	}
}

func TestTransformedBounds(t *testing.T) {
	s := NewSphere(vm.V(0, 0, 0), 1)
	tw := NewTransformed(s, vm.NewTransform(vm.Translate(10, 0, 0)))
	b := tw.Bounds()
	if !b.Contains(vm.V(10, 0, 0)) || b.Contains(vm.V(0, 0, 0)) {
		t.Errorf("bounds = %v", b)
	}
}

func TestTransformedPreservesT(t *testing.T) {
	// t must remain valid distance along the *world* ray even under
	// non-uniform scale, so tMax culling stays correct.
	s := NewSphere(vm.V(0, 0, 0), 1)
	tw := NewTransformed(s, vm.NewTransform(vm.Scaling(3, 3, 3)))
	r := vm.Ray{Origin: vm.V(0, 0, -10), Dir: vm.V(0, 0, 1)}
	h, ok := Intersect(tw, r, 0, inf)
	if !ok {
		t.Fatal("missed scaled sphere")
	}
	// Sphere radius 3 => entry at z=-3 => t=7 on the world ray.
	if math.Abs(h.T-7) > 1e-9 {
		t.Errorf("T = %v, want 7", h.T)
	}
	if got := r.At(h.T); !got.ApproxEq(h.Point, 1e-9) {
		t.Errorf("r.At(T)=%v disagrees with Point=%v", got, h.Point)
	}
}
