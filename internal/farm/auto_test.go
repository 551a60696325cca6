package farm

import (
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

func TestRenderAutoSplitsAtCameraCut(t *testing.T) {
	const frames = 8
	sc := cutScene(frames)
	want := referenceFrames(t, sc)

	// A plain coherent farm run over the whole animation must fail: the
	// coherence engine rejects camera motion inside a sequence.
	if _, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		Scheme: partition.SequenceDivision{Adaptive: true},
	}); err == nil {
		t.Fatal("whole-animation coherent run over a camera cut should fail")
	}

	res, err := RenderAuto(Config{
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
	// Worker stats merged across sequences, not duplicated per sequence.
	if len(res.Workers) != 3 {
		t.Errorf("%d worker entries, want 3", len(res.Workers))
	}
}

func TestRenderAutoStaticCameraEquivalent(t *testing.T) {
	// Without cuts, RenderAuto is just RenderVirtual.
	sc := farmScene(5)
	a, err := RenderAuto(Config{Scene: sc, W: fw, H: fh, Coherence: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderVirtual(Config{Scene: sc, W: fw, H: fh, Coherence: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("auto (%v) differs from direct (%v) with no cuts", a.Makespan, b.Makespan)
	}
	assertFramesEqual(t, "auto-vs-direct", a.Frames, b.Frames)
}

func TestRenderAutoEmitOrder(t *testing.T) {
	sc := cutScene(6)
	var order []int
	_, err := RenderAuto(Config{
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
	sc := farmScene(8)
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		StartFrame: 2, EndFrame: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 3 {
		t.Fatalf("%d frames for range [2,5)", len(res.Frames))
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
