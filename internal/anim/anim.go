// Package anim handles animation-level concerns: splitting an animation
// into camera-stationary sequences. The paper's coherence algorithm
// "works only for sequences in which the camera is stationary, [so] any
// camera movement logically separates one sequence from another" (§3);
// these shorter sequences are the units the farm parallelises.
package anim

import (
	"fmt"

	"nowrender/internal/scene"
)

// Sequence is a maximal run of frames [Start, End) sharing one camera.
type Sequence struct {
	Start, End int // [Start, End)
	Camera     scene.Camera
}

// Frames returns the sequence length.
func (s Sequence) Frames() int { return s.End - s.Start }

// String implements fmt.Stringer.
func (s Sequence) String() string {
	return fmt.Sprintf("frames [%d,%d)", s.Start, s.End)
}

// SplitSequences partitions the scene's frames into camera-stationary
// sequences. A scene without a camera track yields a single sequence.
func SplitSequences(sc *scene.Scene) []Sequence {
	if sc.Frames <= 0 {
		return nil
	}
	var out []Sequence
	cur := Sequence{Start: 0, End: 1, Camera: sc.CameraAt(0)}
	for f := 1; f < sc.Frames; f++ {
		cam := sc.CameraAt(f)
		if cam.Equal(cur.Camera) {
			cur.End = f + 1
			continue
		}
		out = append(out, cur)
		cur = Sequence{Start: f, End: f + 1, Camera: cam}
	}
	return append(out, cur)
}
