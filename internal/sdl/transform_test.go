package sdl

import (
	"math"
	"testing"

	"nowrender/internal/geom"
	vm "nowrender/internal/vecmath"
)

const inf = math.MaxFloat64

func TestTranslateModifier(t *testing.T) {
	sc, err := Parse("t", `sphere { <0,0,0>, 1 translate <5, 0, 0> pigment { color rgb <1,0,0> } }`)
	if err != nil {
		t.Fatal(err)
	}
	b := sc.Objects[0].BoundsAt(0)
	if !b.Contains(vm.V(5, 0, 0)) || b.Contains(vm.V(0, 0, 0)) {
		t.Errorf("translated bounds = %v", b)
	}
}

func TestRotateModifier(t *testing.T) {
	// A box along +X rotated 90 degrees about Y ends up along -Z
	// (POV-Ray's left-handed rotation convention matches RotateY here
	// for the right-handed system we use: +X -> -Z under +90 about Y).
	sc, err := Parse("r", `box { <0,-1,-1>, <4,1,1> rotate <0, 90, 0> }`)
	if err != nil {
		t.Fatal(err)
	}
	b := sc.Objects[0].BoundsAt(0)
	// Rotating +90 about Y maps (4,0,0) to (0,0,-4).
	if !b.Pad(1e-9).Contains(vm.V(0, 0, -4)) {
		t.Errorf("rotated bounds = %v, expected to reach z=-4", b)
	}
	if b.Contains(vm.V(4, 0, 0)) {
		t.Errorf("rotated bounds still contain original extent: %v", b)
	}
}

func TestScaleModifier(t *testing.T) {
	sc, err := Parse("s", `sphere { <0,0,0>, 1 scale <2, 1, 1> }`)
	if err != nil {
		t.Fatal(err)
	}
	// The ellipsoid reaches x=2 but not y=2.
	sh := sc.Objects[0].Shape
	if _, ok := geom.Intersect(sh, vm.Ray{Origin: vm.V(1.9, 0, -5), Dir: vm.V(0, 0, 1)}, 0, inf); !ok {
		t.Error("scaled sphere does not extend to x=1.9")
	}
	if _, ok := geom.Intersect(sh, vm.Ray{Origin: vm.V(0, 1.5, -5), Dir: vm.V(0, 0, 1)}, 0, inf); ok {
		t.Error("scaled sphere extends to y=1.5 but should not")
	}
}

func TestUniformScaleNumber(t *testing.T) {
	sc, err := Parse("s", `sphere { <0,0,0>, 1 scale 3 }`)
	if err != nil {
		t.Fatal(err)
	}
	b := sc.Objects[0].BoundsAt(0)
	if !b.Pad(1e-9).Contains(vm.V(3, 0, 0)) || !b.Pad(1e-9).Contains(vm.V(0, 3, 0)) {
		t.Errorf("uniform scale bounds = %v", b)
	}
}

func TestTransformOrderMatters(t *testing.T) {
	// translate then rotate != rotate then translate.
	a, err := Parse("a", `sphere { <0,0,0>, 0.5 translate <2,0,0> rotate <0,0,90> }`)
	if err != nil {
		t.Fatal(err)
	}
	bScene, err := Parse("b", `sphere { <0,0,0>, 0.5 rotate <0,0,90> translate <2,0,0> }`)
	if err != nil {
		t.Fatal(err)
	}
	// a: sphere at (2,0,0) rotated +90 about Z -> centre (0,2,0).
	ba := a.Objects[0].BoundsAt(0)
	if !ba.Contains(vm.V(0, 2, 0)) {
		t.Errorf("translate-then-rotate bounds = %v, want centre (0,2,0)", ba)
	}
	// b: rotation of a centred sphere is a no-op; then translate -> (2,0,0).
	bb := bScene.Objects[0].BoundsAt(0)
	if !bb.Contains(vm.V(2, 0, 0)) {
		t.Errorf("rotate-then-translate bounds = %v, want centre (2,0,0)", bb)
	}
}

func TestScaleZeroRejected(t *testing.T) {
	if _, err := Parse("z", `sphere { <0,0,0>, 1 scale <0, 1, 1> }`); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestConePrimitive(t *testing.T) {
	sc, err := Parse("c", `cone { <0,0,0>, 1, <0,2,0>, 0.25 pigment { color rgb <1,1,0> } }`)
	if err != nil {
		t.Fatal(err)
	}
	sh := sc.Objects[0].Shape
	// Side hit at half height where radius is 0.625.
	h, ok := geom.Intersect(sh, vm.Ray{Origin: vm.V(-5, 1, 0), Dir: vm.V(1, 0, 0)}, 0, inf)
	if !ok {
		t.Fatal("missed cone")
	}
	if math.Abs(h.Point.X-(-0.625)) > 1e-9 {
		t.Errorf("cone side at x=%v, want -0.625", h.Point.X)
	}
}

func TestOpenConePrimitive(t *testing.T) {
	sc, err := Parse("c", `cone { <0,0,0>, 1, <0,2,0>, 0.25 open }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := geom.Intersect(sc.Objects[0].Shape, vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}, 0, inf); ok {
		t.Error("open cone axis ray hit a cap")
	}
}

func TestTransformedObjectRendersInCoherence(t *testing.T) {
	// A transformed, animated object must still work through the full
	// pipeline (Transformed wrapping composes with animation tracks).
	src := `
camera { location <0,2,8> look_at <0,1,0> }
light_source { <4,8,6> color rgb <1,1,1> }
plane { <0,1,0>, 0 }
box { <-0.5,-0.5,-0.5>, <0.5,0.5,0.5>
  rotate <0, 45, 0>
  translate <0, 1, 0>
  animate { keyframe 0 <0,0,0> keyframe 4 <2,0,0> }
  pigment { color rgb <1,0,0> }
}
global_settings { frames 5 }
`
	sc, err := Parse("x", src)
	if err != nil {
		t.Fatal(err)
	}
	obj := sc.Objects[1]
	if !obj.MovedBetween(0, 1) {
		t.Error("animated transformed box did not move")
	}
	b0 := obj.BoundsAt(0)
	b4 := obj.BoundsAt(4)
	if !b4.Contains(vm.V(2, 1, 0)) || b0.Contains(vm.V(2, 1, 0)) {
		t.Errorf("animated bounds: b0=%v b4=%v", b0, b4)
	}
}

func TestTorusPrimitive(t *testing.T) {
	sc, err := Parse("t", `
torus { 2, 0.5
  rotate <90, 0, 0>
  translate <0, 2, 0>
  pigment { color rgb <0.9, 0.7, 0.2> }
}`)
	if err != nil {
		t.Fatal(err)
	}
	sh := sc.Objects[0].Shape
	// The upright ring at height 2: a ray along +Z through (2, 2).
	h, ok := geom.Intersect(sh, vm.Ray{Origin: vm.V(2, 2, -5), Dir: vm.V(0, 0, 1)}, 0, inf)
	if !ok {
		t.Fatal("missed SDL torus")
	}
	if math.Abs(h.T-4.5) > 1e-6 {
		t.Errorf("T = %v, want 4.5", h.T)
	}
}

func TestTorusBadRadii(t *testing.T) {
	if _, err := Parse("t", `torus { 0, 0.5 }`); err == nil {
		t.Error("zero major radius accepted")
	}
	if _, err := Parse("t", `torus { 2, -1 }`); err == nil {
		t.Error("negative minor radius accepted")
	}
}
