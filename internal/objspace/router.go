package objspace

import (
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// router implements trace.Intersector over a cluster's shards: every
// query sweeps the slabs front-to-back along the partition axis,
// forwarding the ray (through the wire codec, even in-process) at each
// shard-to-shard transition. It intersects the way trace.Worker does:
// candidates report only IntersectT's parameter and part, each shard's
// sub-grid is stepped with a grid.Walker, and the one winning hit is
// completed at the end. One router per worker goroutine — the mailboxes
// and the forward buffer are single-owner scratch, the cluster itself is
// read-only.
type router struct {
	c *Cluster
	// stats, when non-nil, counts every forward this router sends.
	stats *Stats
	stamp uint64
	// mail holds per-shard mailbox stamps indexed by shard-local object
	// id, so one ray never re-tests an object it met in an earlier voxel
	// of the same shard. (Across shards an object IS retested, exactly as
	// a distributed deployment would: shard owners share no mailboxes.)
	mail [][]uint64
	// fwd is the buffer every forward of this router is encoded into and
	// decoded from before the next one overwrites it.
	fwd []byte
}

func (c *Cluster) newRouter(st *Stats) *router {
	rt := &router{c: c, stats: st, mail: make([][]uint64, len(c.shard)), fwd: make([]byte, 0, forwardSize)}
	for i, s := range c.shard {
		rt.mail[i] = make([]uint64, len(s.Objs))
	}
	return rt
}

// Intersect finds the globally nearest hit along r in (tMin, tMax) by
// routing the ray across shards. The result is identical to the
// replicated grid's answer: any object able to produce a nearer hit
// overlaps an earlier slab and was already tested there, so terminating
// at the first shard whose exit parameter the running best does not
// exceed loses nothing.
func (rt *router) Intersect(r vm.Ray, tMin, tMax float64) (geom.Hit, *scene.ResolvedObject, bool) {
	c := rt.c
	fs := ForwardState{Ray: r, TMin: tMin, TMax: tMax, Obj: -1, T: tMax}
	// Unbounded primitives are replicated on the frame owner and tested
	// once per ray in object order, as the replicated tracer does.
	for _, id := range c.unbounded {
		if t, part, ok := c.objs[id].Shape.IntersectT(r, tMin, fs.T); ok {
			fs.Obj, fs.T, fs.Part = id, t, part
		}
	}
	rt.sweep(&fs)
	if fs.Obj < 0 {
		return geom.Hit{}, nil, false
	}
	// A shard's mesh view shares its parent's triangles and part indices,
	// so the frame owner's whole object completes the hit a view found.
	ro := &c.objs[fs.Obj]
	return ro.Shape.HitAt(fs.Ray, fs.T, fs.Part), ro, true
}

// Occluded is the any-hit query of a shadow segment, routed like a
// nearest-hit query but never cut short by a hit: it sweeps every slab
// the segment crosses until a static opaque surface blocks it. The class
// is the replicated worker's, the strongest the segment meets, because
// it depends only on which objects the segment meets, and every object it
// meets overlaps a slab it crosses.
func (rt *router) Occluded(r vm.Ray, tMin, tMax float64) trace.Occlusion {
	c := rt.c
	fs := ForwardState{Ray: r, AnyHit: true, TMin: tMin, TMax: tMax, Obj: -1, T: tMax}
	for _, id := range c.unbounded {
		if t, part, ok := c.objs[id].Shape.IntersectT(r, tMin, tMax); ok {
			if trace.Occludes(&c.objs[id]) == trace.OccStaticBlocked {
				return trace.OccStaticBlocked
			}
			rt.meet(&fs, id, t, part)
		}
	}
	if rt.sweep(&fs) {
		return trace.OccStaticBlocked
	}
	if fs.Obj < 0 {
		return trace.OccClear
	}
	return trace.Occludes(&c.objs[fs.Obj])
}

// meet records a surface an any-hit query's segment meets, short of a
// static opaque one: the running best is the nearest opaque surface met
// so far or, while none has been, the nearest transmissive one, so its
// class is the segment's.
func (rt *router) meet(fs *ForwardState, obj int32, t float64, part int32) {
	if fs.Obj >= 0 {
		opaque, best := trace.Opaque(&rt.c.objs[obj]), trace.Opaque(&rt.c.objs[fs.Obj])
		if (best && !opaque) || (best == opaque && t >= fs.T) {
			return
		}
	}
	fs.Obj, fs.T, fs.Part = obj, t, part
}

// sweep carries fs through the slabs its ray crosses, front to back —
// ascending shard order when the ray points up the partition axis,
// descending otherwise — walking each one's sub-grid and forwarding the
// state at every transition. A nearest-hit query ends at the first slab
// whose exit the running best does not pass; an any-hit query ends when
// it meets a static opaque surface, and sweep then reports blocked.
func (rt *router) sweep(fs *ForwardState) (blocked bool) {
	c := rt.c
	rt.stamp++
	n := len(c.shard)
	si, step := 0, 1
	if fs.Ray.Dir.Axis(c.part.Axis) < 0 {
		si, step = n-1, -1
	}
	prev := -1 // last shard that actually walked this ray
	for k := 0; k < n; k, si = k+1, si+step {
		s := c.shard[si]
		// Clip against the slab: a nearest-hit query only up to its running
		// best, so slabs entirely beyond the settled hit are skipped without
		// a forward, exactly as a remote owner would drop the ray.
		end := fs.T
		if fs.AnyHit {
			end = fs.TMax
		}
		iv, ok := s.Bounds.IntersectRay(fs.Ray, fs.TMin, end)
		if !ok {
			continue
		}
		if prev >= 0 {
			rt.forward(prev, fs)
		}
		if fs.AnyHit {
			if rt.walkAny(s, rt.mail[si], fs) {
				return true
			}
		} else if rt.walkNearest(s, rt.mail[si], fs); fs.Obj >= 0 && fs.T <= iv.Max {
			// The best hit lies inside the slabs already swept; later slabs
			// can only produce farther hits.
			return false
		}
		prev = si
	}
	return false
}

// forward hands fs from shard from to the next owner: the state is
// serialized through the wire codec and the sweep resumes from the
// decoded copy. Floats travel as IEEE-754 bits, so the resumed state is
// bit-identical — and the forward and byte counters measure real
// serialized traffic, attributed to the sending shard.
func (rt *router) forward(from int, fs *ForwardState) {
	rt.fwd = AppendForward(rt.fwd[:0], fs)
	if rt.stats != nil {
		rt.stats.countForward(from, len(rt.fwd))
	}
	// The router encoded a state it holds; a decode failure would be a
	// codec bug, and the state in hand is the right one to go on with.
	if dec, err := DecodeForward(rt.fwd); err == nil {
		*fs = dec
	}
}

// walkNearest steps the ray through shard s's sub-grid, keeping the
// nearest candidate in fs, until the best hit lies inside the voxels
// already walked.
func (rt *router) walkNearest(s *Shard, mail []uint64, fs *ForwardState) {
	var wk grid.Walker
	if !s.Grid.StartWalk(&wk, fs.Ray, fs.TMin, fs.TMax) {
		return
	}
	for {
		idx, tLeave, axis := wk.Voxel()
		for _, lid := range s.Grid.Items(idx) {
			if mail[lid] == rt.stamp {
				continue
			}
			mail[lid] = rt.stamp
			so := &s.Objs[lid]
			if t, part, ok := so.Shape.IntersectT(fs.Ray, fs.TMin, fs.T); ok {
				fs.Obj, fs.T, fs.Part = so.Global, t, part
			}
		}
		if (fs.Obj >= 0 && fs.T <= tLeave) || !wk.Advance(axis) {
			return
		}
	}
}

// walkAny steps the segment through shard s's sub-grid; it returns true
// at the first static opaque candidate and otherwise records the others
// in fs.
func (rt *router) walkAny(s *Shard, mail []uint64, fs *ForwardState) bool {
	var wk grid.Walker
	if !s.Grid.StartWalk(&wk, fs.Ray, fs.TMin, fs.TMax) {
		return false
	}
	for {
		idx, _, axis := wk.Voxel()
		for _, lid := range s.Grid.Items(idx) {
			if mail[lid] == rt.stamp {
				continue
			}
			mail[lid] = rt.stamp
			so := &s.Objs[lid]
			if t, part, ok := so.Shape.IntersectT(fs.Ray, fs.TMin, fs.TMax); ok {
				if trace.Occludes(&rt.c.objs[so.Global]) == trace.OccStaticBlocked {
					return true
				}
				rt.meet(fs, so.Global, t, part)
			}
		}
		if !wk.Advance(axis) {
			return false
		}
	}
}

// compile-time check: the router satisfies the tracer's seam.
var _ trace.Intersector = (*router)(nil)
