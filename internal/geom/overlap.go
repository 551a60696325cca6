package geom

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// BoxOverlapper is an optional interface for shapes that can test
// overlap against an axis-aligned box more tightly than their bounding
// box. The frame-coherence engine uses it to voxelise moving objects
// precisely: a swinging thin cylinder dirties only the voxels it
// actually sweeps, not its whole (fat) AABB.
//
// Implementations may be conservative — returning true when unsure is
// always safe — but must never return false for a box the shape
// actually intersects.
type BoxOverlapper interface {
	OverlapsBox(b vm.AABB) bool
}

// OverlapsBox implements BoxOverlapper exactly: the sphere intersects
// the box iff the squared distance from its centre to the box is at
// most r².
func (s *Sphere) OverlapsBox(b vm.AABB) bool {
	d2 := 0.0
	for axis := 0; axis < 3; axis++ {
		c := s.Center.Axis(axis)
		lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
		if c < lo {
			d2 += (lo - c) * (lo - c)
		} else if c > hi {
			d2 += (c - hi) * (c - hi)
		}
	}
	return d2 <= s.Radius*s.Radius
}

// OverlapsBox implements BoxOverlapper conservatively: the cylinder
// overlaps if the distance from the box centre to the axis segment is
// within radius + half the box diagonal. This never misses a true
// overlap and is far tighter than the cylinder's AABB for thin, slanted
// cylinders (the Newton strings).
func (c *Cylinder) OverlapsBox(b vm.AABB) bool {
	if !c.Bounds().Overlaps(b) {
		return false
	}
	center := b.Center()
	halfDiag := b.Size().Len() / 2
	d := distPointSegment(center, c.Base, c.Cap)
	return d <= c.Radius+halfDiag
}

// distPointSegment returns the distance from p to segment ab.
func distPointSegment(p, a, b vm.Vec3) float64 {
	ab := b.Sub(a)
	t := p.Sub(a).Dot(ab) / math.Max(ab.Len2(), vm.Eps)
	t = vm.Clamp(t, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}

// OverlapsBox implements BoxOverlapper exactly for discs (plane-slab
// test plus centre-distance bound, conservative within a half box
// diagonal).
func (d *Disc) OverlapsBox(b vm.AABB) bool {
	if !d.Bounds().Overlaps(b) {
		return false
	}
	// Distance from box centre to the disc plane must be within half
	// the projected box extent.
	center := b.Center()
	planeDist := math.Abs(center.Sub(d.Center).Dot(d.Normal))
	halfExtent := projectedHalfExtent(b, d.Normal)
	if planeDist > halfExtent {
		return false
	}
	return distPointToDiscCenter(center, d) <= b.Size().Len()/2+1e-12
}

func distPointToDiscCenter(p vm.Vec3, d *Disc) float64 {
	rel := p.Sub(d.Center)
	perp := rel.Dot(d.Normal)
	inPlane := rel.Sub(d.Normal.Scale(perp))
	r := inPlane.Len()
	if r > d.Radius {
		inPlane = inPlane.Scale(d.Radius / r)
	}
	closest := d.Center.Add(inPlane)
	return p.Dist(closest)
}

// projectedHalfExtent returns half the extent of box b projected onto
// unit direction n.
func projectedHalfExtent(b vm.AABB, n vm.Vec3) float64 {
	return halfExtentAlong(b.Size().Scale(0.5), n)
}

// halfExtentAlong is the same for a box given by its half-size.
func halfExtentAlong(half, n vm.Vec3) float64 {
	return math.Abs(half.X*n.X) + math.Abs(half.Y*n.Y) + math.Abs(half.Z*n.Z)
}

// OverlapsBox implements BoxOverlapper for transformed shapes: a
// one-box BoxProbe.
func (tw *Transformed) OverlapsBox(b vm.AABB) bool {
	p := NewBoxProbe(tw, b.Size().Scale(0.5))
	return p.Overlaps(b.Center())
}

// BoxProbe tests boxes of one size against one shape, using the shape's
// tight test (BoxOverlapper) when it has one and its bounding box
// otherwise. The coherence engine asks the same question of every voxel
// in a moving object's bounds, so whatever depends only on the box's
// size is worked out once, in NewBoxProbe.
type BoxProbe struct {
	bounds vm.AABB
	half   vm.Vec3
	// tight, when non-nil, is asked about boxes that overlap bounds; for
	// a Transformed shape it is the wrapped shape, asked in object space
	// about the box of half-extent local around inv * centre.
	tight BoxOverlapper
	inv   *vm.Mat4
	local vm.Vec3
}

// NewBoxProbe prepares tests of s against boxes of half-extent half.
func NewBoxProbe(s Shape, half vm.Vec3) BoxProbe {
	p := BoxProbe{bounds: s.Bounds(), half: half, local: half}
	tw, ok := s.(*Transformed)
	if !ok {
		p.tight, _ = s.(BoxOverlapper)
		return p
	}
	if p.tight, ok = tw.Shape.(BoxOverlapper); ok {
		// An affine map takes the box c ± h to a box inside c' ± |M|h
		// (exactly the AABB of its eight mapped corners): per object axis,
		// the box's half-extent along that row of M.
		m := &tw.Xf.Inv.M
		p.inv = &tw.Xf.Inv
		p.local = vm.V(
			halfExtentAlong(half, vm.V(m[0][0], m[0][1], m[0][2])),
			halfExtentAlong(half, vm.V(m[1][0], m[1][1], m[1][2])),
			halfExtentAlong(half, vm.V(m[2][0], m[2][1], m[2][2])),
		)
	}
	return p
}

// Overlaps reports whether the shape may overlap the box centred at c —
// conservatively, as BoxOverlapper allows.
func (p *BoxProbe) Overlaps(c vm.Vec3) bool {
	if !p.bounds.Overlaps(vm.AABB{Min: c.Sub(p.half), Max: c.Add(p.half)}) {
		return false
	}
	if p.tight == nil {
		return true
	}
	if p.inv != nil {
		c = p.inv.MulPoint(c)
	}
	return p.tight.OverlapsBox(vm.AABB{Min: c.Sub(p.local), Max: c.Add(p.local)})
}
