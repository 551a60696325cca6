package geom

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

// TestBoxProbeConservative: a box that contains a point of a shape's
// surface overlaps the shape, so the probe must say so — for every shape
// kind, wrapped in a transform or not, with or without a tight test. The
// coherence engine's correctness rests on exactly this: a ray that hits
// a mover hits it inside a voxel the probe reported.
func TestBoxProbeConservative(t *testing.T) {
	for name, s := range propShapes() {
		if s.Bounds().Size().MaxComponent() >= HugeExtent {
			continue // the plane: bounds are the whole test
		}
		rng := vm.NewRNG(uint64(len(name)) * 104729)
		half := vm.V(rng.InRange(0.02, 0.4), rng.InRange(0.02, 0.4), rng.InRange(0.02, 0.4))
		probe := NewBoxProbe(s, half)
		hits := 0
		for _, r := range propRays(rng, s.Bounds(), 2000) {
			h, ok := Intersect(s, r, 1e-9, math.Inf(1))
			if !ok {
				continue
			}
			hits++
			// Any box of that size around the hit point, the point anywhere
			// inside it.
			c := h.Point.Add(vm.V(rng.InRange(-1, 1)*half.X, rng.InRange(-1, 1)*half.Y, rng.InRange(-1, 1)*half.Z).Scale(0.999))
			if !probe.Overlaps(c) {
				t.Fatalf("%s: box %v ± %v contains surface point %v, probe says no overlap", name, c, half, h.Point)
			}
			if o, ok := s.(BoxOverlapper); ok && !o.OverlapsBox(vm.AABB{Min: c.Sub(half), Max: c.Add(half)}) {
				t.Fatalf("%s: OverlapsBox disagrees with the probe on box %v ± %v", name, c, half)
			}
		}
		if hits < 100 {
			t.Errorf("%s: %d of 2000 rays hit", name, hits)
		}
	}
}

// TestBoxProbeTighterThanBounds: through a rotation the probe still
// rejects boxes in the empty corners of a sphere's bounding box, and
// everything outside the bounds.
func TestBoxProbeTighterThanBounds(t *testing.T) {
	xf := vm.NewTransform(vm.Translate(3, 1, -2).MulM(vm.RotateAxis(vm.V(1, 1, 0), 0.6)))
	s := NewTransformed(NewSphere(vm.V(0, 0, 0), 1), xf)
	probe := NewBoxProbe(s, vm.Splat(0.05))
	centre := xf.Fwd.MulPoint(vm.V(0, 0, 0))
	if !probe.Overlaps(centre) {
		t.Error("box at the sphere's centre rejected")
	}
	if corner := s.Bounds().Max.Sub(vm.Splat(0.1)); probe.Overlaps(corner) {
		t.Errorf("box at %v, in the corner of the bounds %v, accepted", corner, s.Bounds())
	}
	if probe.Overlaps(s.Bounds().Max.Add(vm.Splat(0.2))) {
		t.Error("box outside the bounds accepted")
	}
}

// TestTransformedBoundsStored: the box computed at construction is the
// mapped box of the wrapped shape.
func TestTransformedBoundsStored(t *testing.T) {
	xf := vm.NewTransform(vm.Translate(0.5, -0.25, 1).MulM(vm.RotateAxis(vm.V(1, 2, 3), 0.7)).MulM(vm.Scaling(1.5, 0.5, 1)))
	inner := NewCylinder(vm.V(-1, 0, 0.5), vm.V(1, 2, 0), 0.6)
	if got, want := NewTransformed(inner, xf).Bounds(), vm.TransformAABB(xf.Fwd, inner.Bounds()); got != want {
		t.Errorf("Bounds() = %v, want %v", got, want)
	}
}
