package objspace

import (
	"nowrender/internal/geom"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// router implements trace.Intersector over a cluster's shards: every
// nearest-hit query sweeps the slabs front-to-back along the partition
// axis, forwarding the ray (through the wire codec, even in-process) at
// each shard-to-shard transition. One router per worker goroutine — the
// mailboxes and the forward buffer are single-owner scratch, the cluster
// itself is read-only.
type router struct {
	c     *Cluster
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

func (c *Cluster) newRouter() *router {
	rt := &router{c: c, mail: make([][]uint64, len(c.shard)), fwd: make([]byte, 0, forwardSize)}
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
	rt.stamp++
	stamp := rt.stamp
	best := geom.Hit{T: tMax}
	bestObj := int32(-1)
	found := false

	// Unbounded primitives are replicated on the frame owner and tested
	// once per ray in object order, as the replicated tracer does.
	for _, id := range c.unbounded {
		ro := &c.objs[id]
		if h, ok := geom.Intersect(ro.Shape, r, tMin, best.T); ok {
			best, bestObj, found = h, id, true
		}
	}

	// Sweep slabs front-to-back: ascending shard order when the ray
	// points up the partition axis, descending otherwise.
	n := len(c.shard)
	si, step := 0, 1
	if r.Dir.Axis(c.part.Axis) < 0 {
		si, step = n-1, -1
	}
	prev := -1 // last shard that actually walked this ray
	for k := 0; k < n; k, si = k+1, si+step {
		s := c.shard[si]
		// Clip against the slab with the running best as the upper bound:
		// slabs entirely beyond the settled hit are skipped without a
		// forward, exactly as a remote owner would drop the ray.
		iv, ok := s.Bounds.IntersectRay(r, tMin, best.T)
		if !ok {
			continue
		}
		if prev >= 0 {
			// Shard-to-shard transition: serialize the full ray state
			// through the wire codec and resume from the decoded copy.
			// Floats travel as IEEE-754 bits, so the resumed state is
			// bit-identical — and the forward/byte counters measure real
			// serialized traffic, attributed to the sending shard.
			fs := ForwardState{
				Pixel: -1, Shard: int32(si),
				Ray: r, TMin: tMin, TMax: tMax,
				Throughput: vm.Splat(1),
				Found:      found, BestObj: bestObj, Best: best,
			}
			data := AppendForward(rt.fwd[:0], &fs)
			rt.fwd = data
			if c.stats != nil {
				c.stats.countForward(prev, len(data))
			}
			if dec, err := DecodeForward(data); err == nil {
				r, tMin, tMax = dec.Ray, dec.TMin, dec.TMax
				best, bestObj, found = dec.Best, dec.BestObj, dec.Found
			}
		}
		mail := rt.mail[si]
		s.Grid.Walk(r, tMin, tMax, func(idx int, tEnter, tLeave float64) bool {
			for _, lid := range s.Grid.Items(idx) {
				if mail[lid] == stamp {
					continue
				}
				mail[lid] = stamp
				so := &s.Objs[lid]
				if h, ok := geom.Intersect(so.RO.Shape, r, tMin, best.T); ok {
					best, bestObj, found = h, so.Global, true
				}
			}
			return !(found && best.T <= tLeave)
		})
		// Terminate once the best hit lies inside the slabs already swept;
		// later slabs can only produce farther hits.
		if found && best.T <= iv.Max {
			break
		}
		prev = si
	}
	if !found {
		return geom.Hit{}, nil, false
	}
	return best, &c.objs[bestObj], true
}

// compile-time check: the router satisfies the tracer's seam.
var _ trace.Intersector = (*router)(nil)
