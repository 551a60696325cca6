package sdl

import (
	"strings"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

const sampleScene = `
// A glass ball over a checkered floor.
global_settings { max_depth 4 frames 10 ambient rgb <1, 1, 1> }
background { color rgb <0.1, 0.1, 0.3> }
camera { location <0, 2, 8> look_at <0, 1, 0> up <0, 1, 0> fov 55 }
light_source { <5, 9, 7> color rgb <1, 1, 1> }

#declare Glass = finish { ambient 0.02 diffuse 0.05 specular 0.9 shininess 200 reflect 0.1 transmit 0.85 ior 1.5 }
#declare Warm = pigment { color rgb <1, 0.8, 0.6> }
#declare Origin = <0, 1, 0>
#declare BallRadius = 1

sphere { Origin, BallRadius
  name "ball"
  pigment { color rgb <1, 1, 1> }
  finish { Glass }
  animate {
    keyframe 0 <0, 0, 0>
    keyframe 9 <3, 0, 0>
  }
}

plane { <0, 1, 0>, 0
  pigment { checker rgb <1,1,1> rgb <0.2,0.2,0.2> size 2 }
}

cylinder { <3, 0, -2>, <3, 2, -2>, 0.3 pigment { Warm } }
box { <-4, 0, -3>, <-3, 1, -2> pigment { brick rgb <0.9,0.9,0.9> rgb <0.6,0.2,0.1> } }
disc { <0, 3, -3>, <0, 0, 1>, 1 pigment { gradient <0,1,0> rgb <0,0,0> rgb <1,1,1> length 2 } }
triangle { <5,0,0>, <6,0,0>, <5.5,1,0> /* a little sail */ }
`

func TestParseSampleScene(t *testing.T) {
	sc, err := Parse("sample", sampleScene)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MaxDepth != 4 || sc.Frames != 10 {
		t.Errorf("globals: depth=%d frames=%d", sc.MaxDepth, sc.Frames)
	}
	if !sc.Background.ApproxEq(vm.V(0.1, 0.1, 0.3), 1e-12) {
		t.Errorf("background = %v", sc.Background)
	}
	if sc.Camera.Pos != vm.V(0, 2, 8) || sc.Camera.FOV != 55 {
		t.Errorf("camera = %+v", sc.Camera)
	}
	if len(sc.Lights) != 1 || sc.Lights[0].Pos != vm.V(5, 9, 7) {
		t.Fatalf("lights = %+v", sc.Lights)
	}
	if len(sc.Objects) != 6 {
		t.Fatalf("%d objects", len(sc.Objects))
	}
	ball := sc.Objects[0]
	if ball.Name != "ball" {
		t.Errorf("name = %q", ball.Name)
	}
	if ball.Mat.Finish.Transmit != 0.85 || ball.Mat.Finish.IOR != 1.5 {
		t.Errorf("declared finish not applied: %+v", ball.Mat.Finish)
	}
	if ball.Track == nil {
		t.Fatal("animation track missing")
	}
	if !ball.MovedBetween(0, 9) {
		t.Error("keyframed ball did not move")
	}
	// Declared pigment applied to cylinder.
	cyl := sc.Objects[2]
	if got := cyl.Mat.Pigment.ColorAt(geom.Hit{}); !got.ApproxEq(vm.V(1, 0.8, 0.6), 1e-12) {
		t.Errorf("declared pigment = %v", got)
	}
}

func TestParsedSceneRenders(t *testing.T) {
	sc, err := Parse("sample", sampleScene)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := trace.New(sc, 0, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(32, 24)
	ft.RenderFull(img)
	// The image must not be entirely background.
	bg := fb.New(32, 24)
	bg.Fill(sc.Background)
	if img.Equal(bg) {
		t.Error("rendered image is pure background; geometry missing")
	}
}

func TestDeclaredVectorAndNumber(t *testing.T) {
	src := `
#declare P = <1, 2, 3>
#declare R = 0.5
camera { location P look_at <0,0,0> }
sphere { P, R pigment { color rgb <1,0,0> } }
`
	sc, err := Parse("decl", src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Camera.Pos != vm.V(1, 2, 3) {
		t.Errorf("camera from declared vector: %v", sc.Camera.Pos)
	}
	if len(sc.Objects) != 1 {
		t.Fatal("sphere missing")
	}
	b := sc.Objects[0].BoundsAt(0)
	if !b.Contains(vm.V(1, 2, 3)) || b.Contains(vm.V(1, 2, 4)) {
		t.Errorf("sphere bounds %v; radius not 0.5?", b)
	}
}

func TestOpenCylinder(t *testing.T) {
	src := `cylinder { <0,0,0>, <0,1,0>, 0.5 open pigment { color rgb <1,1,1> } }`
	sc, err := Parse("open", src)
	if err != nil {
		t.Fatal(err)
	}
	// Ray down the axis passes through an open cylinder.
	h, ok := geom.Intersect(sc.Objects[0].Shape, vm.Ray{Origin: vm.V(0, 5, 0), Dir: vm.V(0, -1, 0)}, 0, 1e18)
	if ok {
		t.Errorf("open cylinder capped: hit %+v", h)
	}
}

func TestAnimatedLight(t *testing.T) {
	src := `
light_source { <0, 5, 0> color rgb <1,1,1>
  animate { keyframe 0 <0,0,0> keyframe 10 <4,0,0> }
}
sphere { <0,0,0>, 1 pigment { color rgb <1,0,0> } }
`
	sc, err := Parse("animlight", src)
	if err != nil {
		t.Fatal(err)
	}
	l := sc.Lights[0]
	if !l.MovedBetween(0, 5) {
		t.Error("animated light did not move")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
/* block
   comment */
sphere { <0,0,0>, 1 // trailing comment
  pigment { color rgb <1,0,0> } }
`
	if _, err := Parse("c", src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown statement", `wibble { }`, "unknown statement"},
		{"unterminated comment", `/* oops`, "unterminated block comment"},
		{"unterminated string", `sphere { <0,0,0>, 1 name "x`, "unterminated string"},
		{"bad directive", `#include "foo"`, "unknown directive"},
		{"missing brace", `sphere  <0,0,0>, 1 }`, "expected '{'"},
		{"bad vector", `sphere { <0,0>, 1 }`, "expected"},
		{"unknown finish param", `sphere { <0,0,0>, 1 finish { glow 1 } }`, "unknown finish parameter"},
		{"unknown pigment", `sphere { <0,0,0>, 1 pigment { plaid } }`, "unknown pigment"},
		{"open on sphere", `sphere { <0,0,0>, 1 open }`, "only valid on cylinders"},
		{"undeclared ident", `sphere { Center, 1 }`, "expected"},
		{"bad global", `global_settings { fps 30 }`, "unknown global setting"},
	}
	for _, c := range cases {
		_, err := Parse(c.name, c.src)
		if err == nil {
			t.Errorf("%s: parse succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	src := "sphere { <0,0,0>, 1 }\nwibble { }"
	_, err := Parse("pos", src)
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func TestSceneValidatedOnParse(t *testing.T) {
	// frames 0 fails scene validation.
	src := `global_settings { frames 0 }
sphere { <0,0,0>, 1 }`
	if _, err := Parse("bad", src); err == nil {
		t.Error("invalid scene accepted")
	}
}

func TestNumbersWithExponents(t *testing.T) {
	src := `sphere { <1e1, -2.5e-1, 0.5>, 1.5e0 pigment { color rgb <1,0,0> } }`
	sc, err := Parse("exp", src)
	if err != nil {
		t.Fatal(err)
	}
	b := sc.Objects[0].BoundsAt(0)
	if !b.Contains(vm.V(10, -0.25, 0.5)) {
		t.Errorf("exponent parsing wrong: bounds %v", b)
	}
}

func TestDefaultFinishApplied(t *testing.T) {
	src := `sphere { <0,0,0>, 1 pigment { color rgb <1,0,0> } }`
	sc, err := Parse("def", src)
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Objects[0].Mat.Finish
	def := material.DefaultFinish()
	if f != def {
		t.Errorf("finish = %+v, want default", f)
	}
}
