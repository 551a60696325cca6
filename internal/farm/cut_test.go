package farm

import (
	"slices"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// cutScene returns a moving-ball animation whose camera cuts between two
// positions at the midpoint.
func cutScene(frames int) *scene.Scene {
	s := farmScene(frames)
	camA := s.Camera
	camB := camA
	camB.Pos = vm.V(4, 3, 8)
	camB.LookAt = vm.V(0, 1, 0)
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		if f < frames/2 {
			return camA
		}
		return camB
	})
	return s
}

// TestCameraCutEveryLink renders an animation with a camera cut, under
// coherence, over every link and three schemes in one run: the master
// tiles each camera-stationary sequence on its own, so the frames match
// the reference, each sequence starts cold, and coherence pays off
// inside both.
func TestCameraCutEveryLink(t *testing.T) {
	const frames, cut = 12, 6
	sc := cutScene(frames)
	want := referenceFrames(t, sc)
	links := []struct {
		name   string
		render func(Config) (*Result, error)
	}{
		{"virtual", RenderVirtual},
		{"local", RenderLocal},
	}
	schemes := []partition.Scheme{
		partition.SequenceDivision{Adaptive: true},
		partition.FrameDivision{BlockW: fw / 2, BlockH: fh / 2, Adaptive: true},
		partition.HybridDivision{BlockW: fw / 2, BlockH: fh / 2, SubseqLen: 4},
	}
	for _, ln := range links {
		for _, sch := range schemes {
			t.Run(ln.name+"/"+sch.Name(), func(t *testing.T) {
				var order []int
				res, err := ln.render(Config{
					Scene: sc, W: fw, H: fh, Coherence: true, Scheme: sch, Workers: 2,
					Emit: func(f int, _ *fb.Framebuffer) error {
						order = append(order, f)
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				assertFramesEqual(t, ln.name, res.Frames, want)
				for i, f := range order {
					if f != i {
						t.Fatalf("emit order %v", order)
					}
				}
				if len(order) != frames {
					t.Errorf("emitted %d frames", len(order))
				}
				copied := make([]int, frames)
				for _, fs := range res.Run.Frames {
					copied[fs.Frame] += fs.Copied
				}
				for _, seq := range [][2]int{{0, cut}, {cut, frames}} {
					if copied[seq[0]] != 0 {
						t.Errorf("frame %d copied %d pixels; a sequence must start cold", seq[0], copied[seq[0]])
					}
					if !slices.ContainsFunc(copied[seq[0]+1:seq[1]], func(c int) bool { return c > 0 }) {
						t.Errorf("frames [%d,%d) copied nothing: %v", seq[0]+1, seq[1], copied)
					}
				}
			})
		}
	}
}

// TestRenderAutoSplitsAtCameraCut checks that one coherent run over a
// camera cut is split automatically by the master: the frames match the
// reference, and the stats cover every frame once and every worker once.
func TestRenderAutoSplitsAtCameraCut(t *testing.T) {
	const frames = 8
	sc := cutScene(frames)
	want := referenceFrames(t, sc)
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		Scheme: partition.SequenceDivision{Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "auto", res.Frames, want)
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if len(res.Run.Frames) != frames {
		t.Errorf("%d frame stats", len(res.Run.Frames))
	}
	if len(res.Workers) != 3 {
		t.Errorf("%d worker entries, want 3", len(res.Workers))
	}
}

// TestRenderAutoEmitOrder checks that frames over a camera cut are emitted
// in order without coherence too.
func TestRenderAutoEmitOrder(t *testing.T) {
	sc := cutScene(6)
	var order []int
	_, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh,
		Emit: func(f int, _ *fb.Framebuffer) error {
			order = append(order, f)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range order {
		if f != i {
			t.Fatalf("emit order %v", order)
		}
	}
	if len(order) != 6 {
		t.Errorf("emitted %d frames", len(order))
	}
}

func TestFrameRangeConfig(t *testing.T) {
	// The window [2,7) crosses the cut at frame 4: the master clips each
	// sequence to it.
	sc := cutScene(8)
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		StartFrame: 2, EndFrame: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 5 {
		t.Fatalf("%d frames for range [2,7)", len(res.Frames))
	}
	// Frames match the reference at their absolute indices.
	want := referenceFrames(t, sc)
	for i, img := range res.Frames {
		if !img.Equal(want[2+i]) {
			t.Errorf("range frame %d differs", 2+i)
		}
	}
	// Invalid ranges rejected.
	if _, err := RenderVirtual(Config{Scene: sc, W: fw, H: fh, StartFrame: 5, EndFrame: 3}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RenderVirtual(Config{Scene: sc, W: fw, H: fh, StartFrame: 0, EndFrame: 99}); err == nil {
		t.Error("overlong range accepted")
	}
}
