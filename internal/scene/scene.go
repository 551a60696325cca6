// Package scene holds the renderer's world description: objects with
// stable identities, materials, lights, a camera, and the animation
// tracks that move them between frames.
//
// Identity matters here: the frame-coherence algorithm needs to ask
// "which objects changed between frame f and f+1, and what space did they
// occupy in each?". Objects therefore carry IDs that are stable across
// the whole animation, and their geometry at a given frame is produced on
// demand from an immutable base shape plus a per-frame transform.
package scene

import (
	"fmt"
	"math"

	"nowrender/internal/geom"
	"nowrender/internal/material"
	vm "nowrender/internal/vecmath"
)

// ObjectID identifies an object across all frames of an animation.
type ObjectID int

// Track produces an object-to-world transform for each frame of an
// animation. Implementations must be deterministic: the same frame always
// yields the same transform, on any worker of the render farm.
type Track interface {
	// At returns the transform at the given frame.
	At(frame int) vm.Transform
	// IsStatic reports whether the transform is the same for all frames,
	// letting the coherence engine skip change detection entirely.
	IsStatic() bool
}

// StaticTrack is a constant transform (possibly identity).
type StaticTrack struct {
	Xf vm.Transform
}

// Static returns a track holding a fixed transform.
func Static(xf vm.Transform) StaticTrack { return StaticTrack{Xf: xf} }

// Identity returns a static identity track.
func IdentityTrack() StaticTrack { return StaticTrack{Xf: vm.IdentityTransform()} }

// At implements Track.
func (s StaticTrack) At(int) vm.Transform { return s.Xf }

// IsStatic implements Track.
func (s StaticTrack) IsStatic() bool { return true }

// FuncTrack derives the transform from an arbitrary function of the
// frame number. This is how the example animations express physics
// (pendulum phases, parabolic bounces).
type FuncTrack struct {
	F func(frame int) vm.Transform
}

// At implements Track.
func (f FuncTrack) At(frame int) vm.Transform { return f.F(frame) }

// IsStatic implements Track.
func (f FuncTrack) IsStatic() bool { return false }

// Keyframe is a (frame, position) pair for KeyframeTrack.
type Keyframe struct {
	Frame int
	Pos   vm.Vec3
}

// KeyframeTrack interpolates object translation linearly between
// keyframes; before the first and after the last keyframe the position is
// clamped. Only translation is keyframed — rotations in the test scenes
// are expressed via FuncTrack.
type KeyframeTrack struct {
	Keys []Keyframe
}

// At implements Track.
func (k KeyframeTrack) At(frame int) vm.Transform {
	if len(k.Keys) == 0 {
		return vm.IdentityTransform()
	}
	if frame <= k.Keys[0].Frame {
		return vm.NewTransform(vm.TranslateV(k.Keys[0].Pos))
	}
	last := k.Keys[len(k.Keys)-1]
	if frame >= last.Frame {
		return vm.NewTransform(vm.TranslateV(last.Pos))
	}
	for i := 1; i < len(k.Keys); i++ {
		if frame <= k.Keys[i].Frame {
			a, b := k.Keys[i-1], k.Keys[i]
			t := float64(frame-a.Frame) / float64(b.Frame-a.Frame)
			return vm.NewTransform(vm.TranslateV(a.Pos.Lerp(b.Pos, t)))
		}
	}
	return vm.NewTransform(vm.TranslateV(last.Pos))
}

// IsStatic implements Track.
func (k KeyframeTrack) IsStatic() bool {
	for i := 1; i < len(k.Keys); i++ {
		if k.Keys[i].Pos != k.Keys[0].Pos {
			return false
		}
	}
	return true
}

// Object is a named, identified scene object: immutable base geometry, a
// material and an animation track.
type Object struct {
	ID    ObjectID
	Name  string
	Shape geom.Shape
	Mat   material.Material
	Track Track
}

// ShapeAt returns the object's world-space geometry at the given frame.
// Static identity transforms return the base shape without a wrapper.
func (o *Object) ShapeAt(frame int) geom.Shape {
	xf := o.track().At(frame)
	if xf.Fwd.ApproxEq(vm.Identity(), 0) {
		return o.Shape
	}
	return geom.NewTransformed(o.Shape, xf)
}

// BoundsAt returns the object's world-space bounds at the given frame.
func (o *Object) BoundsAt(frame int) vm.AABB {
	return vm.TransformAABB(o.track().At(frame).Fwd, o.Shape.Bounds())
}

// MovedBetween reports whether the object's transform differs between the
// two frames (i.e. its geometry changed). Material/finish changes are not
// modelled; the paper's scenes animate only rigid motion.
func (o *Object) MovedBetween(f0, f1 int) bool {
	tr := o.track()
	if tr.IsStatic() {
		return false
	}
	return !tr.At(f0).Fwd.ApproxEq(tr.At(f1).Fwd, 0)
}

// Static reports whether the object never moves: its track is absent or
// static. An object whose track can move counts as moving even over
// frames where it happens to rest.
func (o *Object) Static() bool { return o.Track == nil || o.Track.IsStatic() }

// identityTrack is the track of an object without one, boxed into the
// interface once: boxing a fresh 256-byte StaticTrack allocated on every
// frame query of every static object.
var identityTrack Track = IdentityTrack()

func (o *Object) track() Track {
	if o.Track == nil {
		return identityTrack
	}
	return o.Track
}

// Light is a point light source, optionally animated, optionally a
// spotlight with distance fading (POV-Ray's spotlight and fade_distance/
// fade_power features).
type Light struct {
	Name  string
	Pos   vm.Vec3
	Color material.Color
	Track Track // optional; moves the light's position

	// Spot, when non-nil, restricts the light to a cone.
	Spot *Spotlight
	// FadeDistance enables distance attenuation when positive, with
	// FadePower the exponent (POV: attenuation = 2/(1+(d/fd)^fp),
	// clamped to 1).
	FadeDistance float64
	FadePower    float64
}

// Spotlight restricts a light to a cone aimed at PointAt: full intensity
// inside Radius degrees of the axis, falling smoothly to zero at Falloff
// degrees.
type Spotlight struct {
	PointAt vm.Vec3
	// Radius is the full-intensity half-angle in degrees.
	Radius float64
	// Falloff is the zero-intensity half-angle in degrees (>= Radius).
	Falloff float64
}

// Attenuation returns the light's intensity factor in [0, 1] at point,
// for the light at lightPos (its position in the frame being rendered):
// the spot cone's times the distance fade's. A light with neither
// returns 1 without measuring the distance.
func (l *Light) Attenuation(lightPos, point vm.Vec3) float64 {
	if l.Spot == nil && l.FadeDistance <= 0 {
		return 1
	}
	d := point.Sub(lightPos)
	dist := d.Len()
	f := 1.0
	if l.Spot != nil && dist > vm.Eps {
		axis := l.Spot.PointAt.Sub(lightPos).Norm()
		cosAng := d.Scale(1 / dist).Dot(axis)
		cosIn := math.Cos(vm.Radians(l.Spot.Radius))
		cosOut := math.Cos(vm.Radians(l.Spot.Falloff))
		switch {
		case cosAng >= cosIn:
			// full intensity
		case cosAng <= cosOut:
			return 0
		default:
			t := (cosAng - cosOut) / (cosIn - cosOut)
			f *= t * t * (3 - 2*t) // smoothstep
		}
	}
	if l.FadeDistance > 0 && dist > vm.Eps {
		fp := l.FadePower
		if fp <= 0 {
			fp = 2
		}
		a := 2 / (1 + math.Pow(dist/l.FadeDistance, fp))
		if a > 1 {
			a = 1
		}
		f *= a
	}
	return f
}

// PosAt returns the light position at the given frame.
func (l *Light) PosAt(frame int) vm.Vec3 {
	if l.Track == nil {
		return l.Pos
	}
	xf := l.Track.At(frame)
	return xf.Fwd.MulPoint(l.Pos)
}

// MovedBetween reports whether the light position differs between frames.
func (l *Light) MovedBetween(f0, f1 int) bool {
	if l.Track == nil || l.Track.IsStatic() {
		return false
	}
	return l.PosAt(f0) != l.PosAt(f1)
}

// Camera is a pinhole camera. FOV is the horizontal field of view in
// degrees.
type Camera struct {
	Pos    vm.Vec3
	LookAt vm.Vec3
	Up     vm.Vec3
	FOV    float64
}

// DefaultCamera looks down -Z from (0,0,5) with a 60-degree FOV.
func DefaultCamera() Camera {
	return Camera{Pos: vm.V(0, 0, 5), LookAt: vm.V(0, 0, 0), Up: vm.V(0, 1, 0), FOV: 60}
}

// Equal reports whether two cameras are identical; the sequence splitter
// uses this to find camera cuts.
func (c Camera) Equal(d Camera) bool {
	return c.Pos == d.Pos && c.LookAt == d.LookAt && c.Up == d.Up && c.FOV == d.FOV
}

// CameraTrack produces the camera per frame. A nil CameraTrack in a Scene
// means the static Scene.Camera is used for every frame.
type CameraTrack interface {
	CameraAt(frame int) Camera
}

// CameraFunc adapts a function to CameraTrack.
type CameraFunc func(frame int) Camera

// CameraAt implements CameraTrack.
func (f CameraFunc) CameraAt(frame int) Camera { return f(frame) }

// Scene is a complete world description for an animation.
type Scene struct {
	Name string
	// Objects are all objects, in declaration order. IDs must be unique.
	Objects []*Object
	Lights  []*Light
	Camera  Camera
	// CamTrack, when non-nil, overrides Camera per frame (used by the
	// sequence splitter; the coherence engine requires a stationary
	// camera inside each sequence).
	CamTrack CameraTrack
	// Background is the colour returned by rays that escape the scene.
	Background material.Color
	// Ambient is the global ambient light colour scaling Finish.Ambient.
	Ambient material.Color
	// MaxDepth bounds ray recursion; the paper uses 5.
	MaxDepth int
	// Frames is the total number of animation frames.
	Frames int
}

// New returns an empty scene with the paper's defaults (max depth 5,
// black background, white ambient).
func New(name string) *Scene {
	return &Scene{
		Name:       name,
		Camera:     DefaultCamera(),
		Background: material.Black,
		Ambient:    material.White,
		MaxDepth:   5,
		Frames:     1,
	}
}

// Add appends an object, assigning the next ObjectID, and returns it.
func (s *Scene) Add(name string, shape geom.Shape, mat material.Material, track Track) *Object {
	o := &Object{
		ID:    ObjectID(len(s.Objects)),
		Name:  name,
		Shape: shape,
		Mat:   mat,
		Track: track,
	}
	s.Objects = append(s.Objects, o)
	return o
}

// AddLight appends a light and returns it.
func (s *Scene) AddLight(name string, pos vm.Vec3, color material.Color) *Light {
	l := &Light{Name: name, Pos: pos, Color: color}
	s.Lights = append(s.Lights, l)
	return l
}

// CameraAt returns the camera for a frame, honouring CamTrack.
func (s *Scene) CameraAt(frame int) Camera {
	if s.CamTrack != nil {
		return s.CamTrack.CameraAt(frame)
	}
	return s.Camera
}

// Validate reports structural problems: duplicate IDs, missing shapes,
// non-positive frame counts.
func (s *Scene) Validate() error {
	if s.Frames <= 0 {
		return fmt.Errorf("scene %q: frames must be positive, got %d", s.Name, s.Frames)
	}
	if s.MaxDepth < 1 {
		return fmt.Errorf("scene %q: max depth must be >= 1, got %d", s.Name, s.MaxDepth)
	}
	// Add numbers objects densely, and while every id so far is its own
	// index none can repeat; only the first object off that numbering
	// makes the check build the set of ids seen.
	var seen map[ObjectID]bool
	for i, o := range s.Objects {
		if o.Shape == nil {
			return fmt.Errorf("scene %q: object %q has no shape", s.Name, o.Name)
		}
		if seen == nil {
			if o.ID == ObjectID(i) {
				continue
			}
			seen = make(map[ObjectID]bool, len(s.Objects))
			for j := range i {
				seen[ObjectID(j)] = true
			}
		}
		if seen[o.ID] {
			return fmt.Errorf("scene %q: duplicate object id %d", s.Name, o.ID)
		}
		seen[o.ID] = true
	}
	return nil
}

// BoundsAt returns the scene's extent at the given frame: the bounded
// objects, the camera and the lights. Unbounded primitives (planes) are
// clipped to a box padded by a quarter of it plus one; if the scene has
// only unbounded geometry a default cube is used. Its one use in
// rendering is the coherence engine's clip for an unbounded mover's swept
// box — the tracer's grid covers the bounded geometry alone
// (trace.NewGrid).
func (s *Scene) BoundsAt(frame int) vm.AABB {
	bounded := vm.EmptyAABB()
	hasUnbounded := false
	for _, o := range s.Objects {
		b := o.BoundsAt(frame)
		if b.Size().MaxComponent() >= geom.HugeExtent {
			hasUnbounded = true
			continue
		}
		bounded = bounded.Union(b)
	}
	// Always include the camera and lights so primary/shadow rays start
	// inside the grid region.
	bounded = bounded.Extend(s.CameraAt(frame).Pos)
	for _, l := range s.Lights {
		bounded = bounded.Extend(l.PosAt(frame))
	}
	if bounded.IsEmpty() {
		bounded = vm.NewAABB(vm.Splat(-10), vm.Splat(10))
	}
	if hasUnbounded {
		// Pad so plane intersections near the action are voxelised.
		bounded = bounded.Pad(bounded.Size().MaxComponent()*0.25 + 1)
	} else {
		bounded = bounded.Pad(1e-3)
	}
	return bounded
}

// FrameGeometry resolves every object's world-space shape at a frame.
// The returned slice index corresponds to object order, and each entry
// carries the owning object for material lookup.
type ResolvedObject struct {
	Obj    *Object
	Shape  geom.Shape
	Bounds vm.AABB
}

// ResolveFrame returns the resolved geometry for a frame.
func (s *Scene) ResolveFrame(frame int) []ResolvedObject {
	out := make([]ResolvedObject, len(s.Objects))
	for i, o := range s.Objects {
		sh := o.ShapeAt(frame)
		out[i] = ResolvedObject{Obj: o, Shape: sh, Bounds: sh.Bounds()}
	}
	return out
}
