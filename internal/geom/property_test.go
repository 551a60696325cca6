package geom

import (
	"math"
	"testing"

	vm "nowrender/internal/vecmath"
)

// propShapes is one of every shape kind, in general position.
func propShapes() map[string]Shape {
	tris := []*Triangle{
		NewTriangle(vm.V(0, 0, 0), vm.V(1, 0, 0), vm.V(0, 1, 0)),
		NewTriangle(vm.V(0, 0, 0), vm.V(0, 1, 0), vm.V(0, 0, 1)),
		NewTriangle(vm.V(0, 0, 0), vm.V(0, 0, 1), vm.V(1, 0, 0)),
		NewTriangle(vm.V(1, 0, 0), vm.V(0, 0, 1), vm.V(0, 1, 0)),
	}
	xf := vm.NewTransform(vm.Translate(0.5, -0.25, 1).MulM(vm.RotateAxis(vm.V(1, 2, 3), 0.7)).MulM(vm.Scaling(1.5, 0.5, 1)))
	return map[string]Shape{
		"sphere":          NewSphere(vm.V(0.5, -1, 2), 1.25),
		"plane":           NewPlane(vm.V(0.2, 1, -0.1), 0.5),
		"box":             NewBox(vm.V(-1, -0.5, 0), vm.V(1, 1.5, 2)),
		"disc":            NewDisc(vm.V(0, 1, 0), vm.V(0.3, 1, 0.2), 1.5),
		"cylinder":        NewCylinder(vm.V(-1, 0, 0.5), vm.V(1, 2, 0), 0.6),
		"open cylinder":   NewOpenCylinder(vm.V(0, -1, 0), vm.V(0, 1, 0), 0.75),
		"cone":            NewCone(vm.V(0, 0, 0), 1, vm.V(0.5, 2, 0.5), 0.25),
		"apex cone":       NewCone(vm.V(0, 0, 0), 1, vm.V(0, 1.5, 0), 0),
		"open cone":       NewOpenCone(vm.V(1, 0, 0), 0.5, vm.V(-1, 0.5, 0), 1),
		"torus":           NewTorus(2, 0.5),
		"triangle":        tris[3],
		"smooth triangle": NewSmoothTriangle(vm.V(-1, 0, 0), vm.V(1, 0, 0.5), vm.V(0, 1.5, 0), vm.V(-0.3, 0.2, 1), vm.V(0.3, 0.2, 1), vm.V(0, 0.5, 1)),
		"mesh":            NewMesh(tris),
		"transformed":     NewTransformed(NewTorus(1, 0.3), xf),
		"nested transformed": NewTransformed(
			NewTransformed(NewCylinder(vm.V(0, 0, 0), vm.V(0, 1, 0), 0.5), vm.NewTransform(vm.RotateZ(0.4))), xf),
	}
}

// propRays draws rays against a shape bounded by b: from outside aimed
// into the box, from inside it, through the edges of the box and
// axis-parallel. (Rays grazing the surface itself are built from hit
// points, in the test.)
func propRays(rng *vm.RNG, b vm.AABB, n int) []vm.Ray {
	if b.Size().MaxComponent() >= HugeExtent {
		b = vm.NewAABB(vm.Splat(-2), vm.Splat(2)) // the plane
	}
	in := func() vm.Vec3 {
		return vm.V(rng.InRange(b.Min.X, b.Max.X), rng.InRange(b.Min.Y, b.Max.Y), rng.InRange(b.Min.Z, b.Max.Z))
	}
	far := func() vm.Vec3 {
		d := vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		return b.Center().Add(d.Norm().Scale(b.Size().Len() * rng.InRange(0.6, 3)))
	}
	rays := make([]vm.Ray, 0, n)
	for len(rays) < n {
		var o, d vm.Vec3
		switch len(rays) % 4 {
		case 0: // from outside
			o = far()
			d = in().Sub(o)
		case 1: // from inside
			o = in()
			d = vm.V(rng.InRange(-1, 1), rng.InRange(-1, 1), rng.InRange(-1, 1))
		case 2: // through a point on an edge of the bounds
			edge, free := in(), rng.Intn(3)
			for a := 0; a < 3; a++ {
				if a != free {
					edge = edge.SetAxis(a, [2]vm.Vec3{b.Min, b.Max}[rng.Intn(2)].Axis(a))
				}
			}
			o = far()
			d = edge.Sub(o)
		case 3: // axis-parallel, from outside or inside
			o = in()
			d = vm.Vec3{}.SetAxis(rng.Intn(3), float64(2*rng.Intn(2)-1))
			if rng.Intn(2) == 0 {
				o = o.Sub(d.Scale(2 * b.Size().Len()))
			}
		}
		if d.Len() < 1e-6 {
			continue
		}
		if rng.Intn(2) == 0 {
			d = d.Norm()
		}
		rays = append(rays, vm.Ray{Origin: o, Dir: d})
	}
	return rays
}

// TestTwoPhaseProperties checks, for every shape kind over seeded rays,
// what the tracer assumes of IntersectT and HitAt.
func TestTwoPhaseProperties(t *testing.T) {
	const tMin = 1e-9
	for name, s := range propShapes() {
		_, wrapped := s.(*Transformed)
		check := func(r vm.Ray, tMax float64) (Hit, bool) {
			tHit, part, ok := s.IntersectT(r, tMin, tMax)
			if !ok {
				return Hit{}, false
			}
			if !(tHit > tMin && tHit < tMax) {
				t.Fatalf("%s: t = %v outside (%v, %v) on %+v", name, tHit, tMin, tMax, r)
			}
			h := s.HitAt(r, tHit, part)
			if h.T != tHit {
				t.Fatalf("%s: HitAt.T = %v, IntersectT gave %v", name, h.T, tHit)
			}
			// A Transformed maps the point out of object space, so it
			// matches the world ray only to rounding.
			if p := r.At(tHit); h.Point != p && !(wrapped && h.Point.ApproxEq(p, 1e-9*(1+p.Len()))) {
				t.Fatalf("%s: Point = %v, r.At(t) = %v", name, h.Point, p)
			}
			if math.Abs(h.Normal.Len()-1) > 1e-9 {
				t.Fatalf("%s: |normal| = %v", name, h.Normal.Len())
			}
			if along := h.Normal.Dot(r.Dir); along > 1e-9*r.Dir.Len() {
				t.Fatalf("%s: normal %v does not oppose ray dir %v (dot %v)", name, h.Normal, r.Dir, along)
			}
			if composed, ok := Intersect(s, r, tMin, tMax); !ok || composed != h {
				t.Fatalf("%s: Intersect = %+v, %v; the two phases gave %+v", name, composed, ok, h)
			}
			// Closing the range at t never returns the same point again...
			if t2, _, ok := s.IntersectT(r, tMin, tHit); ok && !(t2 < tHit) {
				t.Fatalf("%s: tMax = t = %v returned t = %v", name, tHit, t2)
			}
			// ...and opening it at t steps to the next root, a finite
			// number of times.
			lo, steps := tHit, 0
			for ; steps < 16; steps++ {
				t2, _, ok := s.IntersectT(r, lo, tMax)
				if !ok {
					break
				}
				if !(t2 > lo && t2 < tMax) {
					t.Fatalf("%s: tMin = %v returned t = %v", name, lo, t2)
				}
				lo = t2
			}
			if steps == 16 {
				t.Fatalf("%s: more than 16 roots along %+v", name, r)
			}
			return h, true
		}

		rng := vm.NewRNG(uint64(len(name)) * 7919)
		hits, grazes := 0, 0
		for _, r := range propRays(rng, s.Bounds(), 2000) {
			tMax := math.Inf(1)
			if rng.Intn(4) == 0 {
				tMax = rng.InRange(0.5, 6)
			}
			h, ok := check(r, tMax)
			if !ok {
				continue
			}
			hits++
			// Graze the surface where it was just hit: along a tangent,
			// a hair inside or outside. Either outcome is fine; what it
			// returns must still hold up.
			tangent := vm.NewONB(h.Normal).Local(rng.InRange(-1, 1), rng.InRange(-1, 1), 0)
			if tangent.Len() < 1e-3 {
				continue
			}
			from := h.Point.Add(h.Normal.Scale(rng.InRange(-1e-7, 1e-7))).Sub(tangent.Scale(3))
			if _, ok := check(vm.Ray{Origin: from, Dir: tangent}, math.Inf(1)); ok {
				grazes++
			}
		}
		flat := false // a tangent ray is parallel to a flat shape and misses
		switch s.(type) {
		case *Plane, *Disc, *Triangle:
			flat = true
		}
		if hits < 100 || (grazes == 0 && !flat) {
			t.Errorf("%s: %d of 2000 rays hit, %d grazing rays hit — the generator misses the shape", name, hits, grazes)
		}
	}
}
