package anim

import (
	"testing"

	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

func baseScene(frames int) *scene.Scene {
	s := scene.New("a")
	s.Frames = frames
	s.Add("ball", geom.NewSphere(vm.V(0, 0, 0), 1), material.Matte(material.Red), nil)
	return s
}

func TestStaticCameraSingleSequence(t *testing.T) {
	s := baseScene(45)
	seqs := SplitSequences(s)
	if len(seqs) != 1 {
		t.Fatalf("%d sequences, want 1", len(seqs))
	}
	if seqs[0].Start != 0 || seqs[0].End != 45 {
		t.Errorf("sequence = %v", seqs[0])
	}
}

func TestCameraCutSplits(t *testing.T) {
	s := baseScene(30)
	// Cut at frame 10 and 20.
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		c := scene.DefaultCamera()
		switch {
		case f < 10:
			c.Pos = vm.V(0, 0, 5)
		case f < 20:
			c.Pos = vm.V(5, 0, 5)
		default:
			c.Pos = vm.V(0, 5, 5)
		}
		return c
	})
	seqs := SplitSequences(s)
	if len(seqs) != 3 {
		t.Fatalf("%d sequences, want 3: %v", len(seqs), seqs)
	}
	wantBounds := [][2]int{{0, 10}, {10, 20}, {20, 30}}
	for i, w := range wantBounds {
		if seqs[i].Start != w[0] || seqs[i].End != w[1] {
			t.Errorf("seq %d = %v, want [%d,%d)", i, seqs[i], w[0], w[1])
		}
	}
}

func TestContinuouslyMovingCamera(t *testing.T) {
	s := baseScene(5)
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		c := scene.DefaultCamera()
		c.Pos = vm.V(float64(f), 0, 5)
		return c
	})
	seqs := SplitSequences(s)
	if len(seqs) != 5 {
		t.Fatalf("%d sequences, want 5 (one per frame)", len(seqs))
	}
	for i, sq := range seqs {
		if sq.Frames() != 1 || sq.Start != i {
			t.Errorf("seq %d = %v", i, sq)
		}
	}
}

func TestZeroFrames(t *testing.T) {
	s := baseScene(0)
	if got := SplitSequences(s); got != nil {
		t.Errorf("sequences for 0 frames: %v", got)
	}
}

func TestSequenceFrames(t *testing.T) {
	sq := Sequence{Start: 3, End: 10}
	if sq.Frames() != 7 {
		t.Errorf("Frames = %d", sq.Frames())
	}
	if sq.String() == "" {
		t.Error("empty String")
	}
}
