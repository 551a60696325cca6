package scene

import (
	"math"
	"testing"

	"nowrender/internal/geom"
	"nowrender/internal/heappin"
	"nowrender/internal/material"
	vm "nowrender/internal/vecmath"
)

func TestStaticTrack(t *testing.T) {
	tr := Static(vm.NewTransform(vm.Translate(1, 2, 3)))
	if !tr.IsStatic() {
		t.Error("static track not static")
	}
	if tr.At(0).Fwd != tr.At(100).Fwd {
		t.Error("static track changed over frames")
	}
}

func TestFuncTrack(t *testing.T) {
	tr := FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(f), 0, 0))
	}}
	if tr.IsStatic() {
		t.Error("func track reported static")
	}
	xf := tr.At(3)
	if got := xf.Fwd.MulPoint(vm.V(0, 0, 0)); got != vm.V(3, 0, 0) {
		t.Errorf("At(3) = %v", got)
	}
}

func TestKeyframeTrackInterpolation(t *testing.T) {
	tr := KeyframeTrack{Keys: []Keyframe{
		{Frame: 0, Pos: vm.V(0, 0, 0)},
		{Frame: 10, Pos: vm.V(10, 0, 0)},
		{Frame: 20, Pos: vm.V(10, 10, 0)},
	}}
	cases := []struct {
		frame int
		want  vm.Vec3
	}{
		{-5, vm.V(0, 0, 0)},  // clamp before
		{0, vm.V(0, 0, 0)},   // first key
		{5, vm.V(5, 0, 0)},   // mid first span
		{10, vm.V(10, 0, 0)}, // second key
		{15, vm.V(10, 5, 0)}, // mid second span
		{25, vm.V(10, 10, 0)},
	}
	for _, c := range cases {
		xf := tr.At(c.frame)
		got := xf.Fwd.MulPoint(vm.V(0, 0, 0))
		if !got.ApproxEq(c.want, 1e-12) {
			t.Errorf("frame %d: %v, want %v", c.frame, got, c.want)
		}
	}
}

func TestKeyframeTrackStaticDetection(t *testing.T) {
	same := KeyframeTrack{Keys: []Keyframe{
		{Frame: 0, Pos: vm.V(1, 1, 1)},
		{Frame: 10, Pos: vm.V(1, 1, 1)},
	}}
	if !same.IsStatic() {
		t.Error("constant keyframes should be static")
	}
	diff := KeyframeTrack{Keys: []Keyframe{
		{Frame: 0, Pos: vm.V(0, 0, 0)},
		{Frame: 10, Pos: vm.V(1, 0, 0)},
	}}
	if diff.IsStatic() {
		t.Error("moving keyframes reported static")
	}
}

func TestEmptyKeyframeTrack(t *testing.T) {
	tr := KeyframeTrack{}
	if got := tr.At(5).Fwd; !got.ApproxEq(vm.Identity(), 0) {
		t.Errorf("empty track transform = %v", got)
	}
}

func TestObjectShapeAt(t *testing.T) {
	s := New("t")
	sp := geom.NewSphere(vm.V(0, 0, 0), 1)
	obj := s.Add("ball", sp, material.Matte(material.Red), KeyframeTrack{Keys: []Keyframe{
		{Frame: 0, Pos: vm.V(0, 0, 0)},
		{Frame: 10, Pos: vm.V(10, 0, 0)},
	}})
	b0 := obj.BoundsAt(0)
	b10 := obj.BoundsAt(10)
	if !b0.Contains(vm.V(0, 0, 0)) {
		t.Error("frame 0 bounds wrong")
	}
	if !b10.Contains(vm.V(10, 0, 0)) || b10.Contains(vm.V(0, 0, 0)) {
		t.Errorf("frame 10 bounds wrong: %v", b10)
	}
	// ShapeAt actually intersects at the moved location.
	h, ok := geom.Intersect(obj.ShapeAt(10), vm.Ray{Origin: vm.V(10, 0, -5), Dir: vm.V(0, 0, 1)}, 0, math.MaxFloat64)
	if !ok || math.Abs(h.T-4) > 1e-9 {
		t.Errorf("moved sphere intersect: ok=%v T=%v", ok, h.T)
	}
}

func TestObjectShapeAtIdentityReturnsBase(t *testing.T) {
	s := New("t")
	sp := geom.NewSphere(vm.V(0, 0, 0), 1)
	obj := s.Add("static", sp, material.Matte(material.Red), nil)
	if obj.ShapeAt(3) != geom.Shape(sp) {
		t.Error("identity track should return base shape unwrapped")
	}
}

// TestStaticObjectQueriesAllocateNothing: an object without a track
// answers every frame query without boxing an identity track of its own.
func TestStaticObjectQueriesAllocateNothing(t *testing.T) {
	s := New("t")
	obj := s.Add("static", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red), nil)
	var b vm.AABB
	_, allocs := heappin.PerCall(t, 100, func() {
		_ = obj.ShapeAt(3)
		b = obj.BoundsAt(3)
		_ = obj.MovedBetween(3, 4)
	})
	if allocs != 0 {
		t.Errorf("ShapeAt, BoundsAt and MovedBetween of a static object: %v allocations, want 0", allocs)
	}
	if b.IsEmpty() {
		t.Error("empty bounds")
	}
}

func TestObjectMovedBetween(t *testing.T) {
	s := New("t")
	moving := s.Add("m", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red),
		KeyframeTrack{Keys: []Keyframe{{0, vm.V(0, 0, 0)}, {10, vm.V(5, 0, 0)}}})
	still := s.Add("s", geom.NewSphere(vm.V(3, 0, 0), 1), material.Matte(material.Blue), nil)
	if !moving.MovedBetween(0, 1) {
		t.Error("moving object not detected")
	}
	if still.MovedBetween(0, 1) {
		t.Error("static object detected as moved")
	}
	// A func track that happens to repeat gives no movement between the
	// identical frames.
	if moving.MovedBetween(10, 11) {
		t.Error("clamped keyframes beyond last key should not move")
	}
}

func TestLightMovedBetween(t *testing.T) {
	l := &Light{Pos: vm.V(0, 10, 0), Color: material.White}
	if l.MovedBetween(0, 1) {
		t.Error("untracked light moved")
	}
	l.Track = FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(f), 0, 0))
	}}
	if !l.MovedBetween(0, 1) {
		t.Error("tracked light not moved")
	}
	if got := l.PosAt(2); got != vm.V(2, 10, 0) {
		t.Errorf("PosAt = %v", got)
	}
}

func TestSceneValidate(t *testing.T) {
	s := New("ok")
	s.Add("a", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red), nil)
	if err := s.Validate(); err != nil {
		t.Errorf("valid scene rejected: %v", err)
	}
	s.Frames = 0
	if err := s.Validate(); err == nil {
		t.Error("zero frames accepted")
	}
	s.Frames = 1
	s.MaxDepth = 0
	if err := s.Validate(); err == nil {
		t.Error("zero depth accepted")
	}
	s.MaxDepth = 5
	s.Objects[0].Shape = nil
	if err := s.Validate(); err == nil {
		t.Error("nil shape accepted")
	}
}

func TestSceneValidateDuplicateIDs(t *testing.T) {
	s := New("dup")
	s.Add("a", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red), nil)
	s.Add("b", geom.NewSphere(vm.V(2, 0, 0), 1), material.Matte(material.Red), nil)
	s.Objects[1].ID = s.Objects[0].ID
	if err := s.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

// TestSceneValidateAllocatesNothing: a scene built with Add has dense
// ids, so Validate — run for every frame a tracer is made for — needs no
// set of the ids it has seen.
func TestSceneValidateAllocatesNothing(t *testing.T) {
	s := New("dense")
	for i := range 50 {
		s.Add("o", geom.NewSphere(vm.V(float64(i), 0, 0), 1), material.Matte(material.Red), nil)
	}
	if _, got := heappin.PerCall(t, 100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Validate of an Add-built scene: %v allocs, want 0", got)
	}
	// Off the dense numbering, a repeat of an id from before is still
	// caught.
	s.Objects[30].ID = 1000
	s.Objects[40].ID = 7
	if err := s.Validate(); err == nil {
		t.Error("duplicate of a dense id accepted")
	}
}

func TestSceneBoundsClipsPlanes(t *testing.T) {
	s := New("b")
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Red), nil)
	b := s.BoundsAt(0)
	if b.Size().MaxComponent() >= geom.HugeExtent {
		t.Errorf("plane's huge bounds leaked into scene bounds: %v", b)
	}
	if !b.Contains(vm.V(0, 1, 0)) {
		t.Error("scene bounds exclude the sphere")
	}
	if !b.Contains(s.Camera.Pos) {
		t.Error("scene bounds exclude the camera")
	}
}

func TestSceneBoundsOnlyUnbounded(t *testing.T) {
	s := New("p")
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	b := s.BoundsAt(0)
	if b.IsEmpty() {
		t.Error("empty bounds for plane-only scene")
	}
}

func TestCameraTrackOverrides(t *testing.T) {
	s := New("cams")
	s.CamTrack = CameraFunc(func(f int) Camera {
		c := DefaultCamera()
		c.Pos = vm.V(float64(f), 0, 5)
		return c
	})
	if got := s.CameraAt(3).Pos; got != vm.V(3, 0, 5) {
		t.Errorf("CameraAt(3).Pos = %v", got)
	}
	if s.CameraAt(0).Equal(s.CameraAt(1)) {
		t.Error("distinct cameras reported equal")
	}
}

func TestResolveFrame(t *testing.T) {
	s := New("r")
	s.Add("a", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red), nil)
	s.Add("b", geom.NewSphere(vm.V(4, 0, 0), 1), material.Matte(material.Blue), nil)
	rs := s.ResolveFrame(0)
	if len(rs) != 2 {
		t.Fatalf("resolved %d objects", len(rs))
	}
	if rs[0].Obj.Name != "a" || rs[1].Obj.Name != "b" {
		t.Error("resolution order broken")
	}
	if !rs[1].Bounds.Contains(vm.V(4, 0, 0)) {
		t.Error("resolved bounds wrong")
	}
}
