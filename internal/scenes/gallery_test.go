package scenes

import (
	"testing"

	"nowrender/internal/anim"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/trace"
)

func TestGalleryInventory(t *testing.T) {
	s := Gallery(0)
	if s.Frames != GalleryFrames {
		t.Errorf("frames = %d", s.Frames)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, o := range s.Objects {
		switch o.Shape.(type) {
		case *geom.Plane:
			kinds["plane"]++
		case *geom.Sphere:
			kinds["sphere"]++
		case *geom.Box:
			kinds["box"]++
		case *geom.Cylinder:
			kinds["cylinder"]++
		case *geom.Cone:
			kinds["cone"]++
		case *geom.Disc:
			kinds["disc"]++
		case *geom.Mesh:
			kinds["mesh"]++
		case *geom.Transformed:
			kinds["transformed"]++
		}
	}
	for _, k := range []string{"plane", "sphere", "box", "cylinder", "cone", "disc", "mesh", "transformed"} {
		if kinds[k] == 0 {
			t.Errorf("gallery has no %s", k)
		}
	}
}

func TestGalleryCameraCutSplits(t *testing.T) {
	s := Gallery(60)
	seqs := anim.SplitSequences(s)
	if len(seqs) != 2 {
		t.Fatalf("%d sequences, want 2", len(seqs))
	}
	if seqs[0].Start != 0 || seqs[0].End != 30 || seqs[1].Start != 30 || seqs[1].End != 60 {
		t.Errorf("sequences %v, %v; want [0,30) and [30,60)", seqs[0], seqs[1])
	}
}

func TestGalleryMoversMove(t *testing.T) {
	s := Gallery(60)
	moving := 0
	for _, o := range s.Objects {
		if o.MovedBetween(3, 4) {
			moving++
		}
	}
	if moving != 2 {
		t.Errorf("%d objects moving, want the orbiter and the bouncer", moving)
	}
}

func TestGalleryRendersBothShots(t *testing.T) {
	s := Gallery(60)
	for _, f := range []int{5, 45} {
		ft, err := trace.New(s, f, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		img := fb.New(48, 36)
		ft.RenderFull(img)
		colors := map[[3]byte]bool{}
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				r, g, b := img.At(x, y)
				colors[[3]byte{r, g, b}] = true
			}
		}
		if len(colors) < 32 {
			t.Errorf("frame %d: only %d colours", f, len(colors))
		}
	}
	// The two shots are genuinely different camera angles.
	a, _ := trace.New(s, 5, trace.Options{})
	b, _ := trace.New(s, 45, trace.Options{})
	imgA, imgB := fb.New(32, 24), fb.New(32, 24)
	a.RenderFull(imgA)
	b.RenderFull(imgB)
	if imgA.DiffCount(imgB) < 32*24/4 {
		t.Error("wide and close shots barely differ; camera cut broken")
	}
}
