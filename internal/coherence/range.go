package coherence

import (
	"fmt"
	"sync"

	"nowrender/internal/bitset"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/objspace"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// Range holds what engines over the same scene, frame range, tracer
// options and shard count share whatever their region: the validated
// scene and its stationary camera, the objects that move in the range and
// the registration grid over their swept bounds, each frame's geometry
// (its tracer, or its object-space cluster — see Frames), each mover's
// voxels at each frame and the changed voxels of each frame pair. Frame
// division gives a worker several blocks of the same frames; with one
// Range behind its block engines the worker builds each of these once
// instead of once per block.
//
// Everything past the grid is filled by the first engine that asks for
// it. Fills are serialised by a mutex; what a fill produced is never
// written again, so engines (and their tile workers) read it without the
// lock and a Range may serve engines on several goroutines at once.
//
// A Range made by NewRange keeps what it has built until it is dropped:
// one tracer, one voxel list per mover and one changed set per frame —
// 6.9 kB a frame on Newton, about 5 of them the tracer's resolved
// objects and scene grid (TestRangeRetainedBytes). The private Range
// behind NewEngine serves one engine and keeps no tracer, so a
// single-engine render's heap does not grow by a scene grid per frame;
// the lists and sets it does keep are the other 2 kB.
type Range struct {
	sc         *scene.Scene
	start, end int // end exclusive
	// geo is each frame's geometry, built by the first engine to reach
	// the frame.
	geo *Frames

	// grid is the registration grid, identical for every frame of the
	// range; nil when nothing moves in it, and then movers is empty and
	// no voxel list or changed-voxel bitset is ever built.
	grid   *grid.Grid
	movers []*scene.Object

	// mu guards the lazy fills below and the counters.
	mu sync.Mutex
	// lists[(f-start)*len(movers)+m] is mover m's voxels at frame f, nil
	// until voxelised. The lists are kept per mover and frame, not as a
	// per-frame union, so that an object that has come to rest stops
	// marking. They are carved out of arena, the current chunk of a
	// chunked arena (a chunk is never regrown, so nothing is copied and a
	// Range allocates what it keeps); scratch is where a shape is
	// voxelised before its list's size is known.
	lists          [][]int32
	arena, scratch []int32
	// pairs[f-start] is what changes between frames f and f+1.
	pairs []changeSet
	stats RangeStats
}

// arenaChunk is the size, in voxel indices, of the chunks voxel lists are
// carved from: some thirty Newton lists.
const arenaChunk = 4096

// changeSet is what change detection needs of a frame pair, the same for
// every region: all when a light moved (every pixel is dirty, no voxel is
// examined), otherwise the n voxels some mover leaves or enters (voxels
// is nil when no mover moved). Read-only once handed out.
type changeSet struct {
	done, all bool
	voxels    *bitset.Bitset
	n         int
}

// RangeStats counts what a Range has built so far and the frame geometry
// it holds — how tests tell shared work from repeated work.
type RangeStats struct {
	// Movers is the number of objects that move in the range, Engines the
	// number of engines made from it.
	Movers, Engines int
	// FramesBuilt counts frame geometries built (trace.New, or
	// objspace.Build on a sharded Range), FramesHeld the ones kept (always
	// 0 for the private Range behind NewEngine).
	FramesBuilt, FramesHeld int
	// Voxelisations counts (mover, frame) voxel lists built, ChangeSets
	// the frame pairs resolved.
	Voxelisations, ChangeSets int
}

// tracerOptions is the part of Options that reaches the per-frame tracer
// (and, through GridRes, the registration grid): with the shard count,
// the part engines sharing a Range must agree on.
func (o Options) tracerOptions() trace.Options {
	return trace.Options{
		GridRes:         o.GridRes,
		SamplesPerPixel: o.SamplesPerPixel,
		AAThreshold:     o.AAThreshold,
		AASamples:       o.AASamples,
	}
}

// NewRange prepares the state engines over frames [start, end) of the
// scene share; opts contributes its tracer fields (GridRes,
// SamplesPerPixel, AAThreshold, AASamples) and ObjSpaceShards. The scene
// is validated, the camera checked stationary across the range, and the
// movers' swept bounds are gathered here, once, however many engines
// follow.
func NewRange(sc *scene.Scene, start, end int, opts Options) (*Range, error) {
	return newRange(sc, start, end, opts, false)
}

func newRange(sc *scene.Scene, start, end int, opts Options, private bool) (*Range, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	geo, err := newFrames(sc, start, end, opts.tracerOptions(), opts.ObjSpaceShards, private)
	if err != nil {
		return nil, err
	}
	cam0 := sc.CameraAt(start)
	for f := start + 1; f < end; f++ {
		if !sc.CameraAt(f).Equal(cam0) {
			return nil, fmt.Errorf("coherence: camera moves at frame %d; split the sequence first", f)
		}
	}
	r := &Range{sc: sc, start: start, end: end, geo: geo}
	if err := r.layGrid(); err != nil {
		return nil, err
	}
	n := end - start
	r.pairs = make([]changeSet, n)
	r.lists = make([][]int32, n*len(r.movers))
	r.stats.Movers = len(r.movers)
	return r, nil
}

// Matches reports whether the Range is the one NewRange would build for
// these arguments, so that a holder can keep it for the next engine.
func (r *Range) Matches(sc *scene.Scene, start, end int, opts Options) bool {
	return r.sc == sc && r.start == start && r.end == end && r.agrees(opts)
}

// agrees reports whether opts build frames the way the Range's are built.
func (r *Range) agrees(opts Options) bool {
	return r.geo.topts == opts.tracerOptions() && r.geo.shards == opts.ObjSpaceShards
}

// Frames returns the Range's frame geometry, for renders of the same
// frames that need no engine.
func (r *Range) Frames() *Frames { return r.geo }

// Stats returns the Range's build counters.
func (r *Range) Stats() RangeStats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	_, st.FramesBuilt, st.FramesHeld = r.geo.Stats()
	return st
}

// NewEngine prepares a coherence engine over the range, rendering only
// pixels inside region of a w x h frame. opts must carry the tracer
// fields and the shard count the Range was made with.
func (r *Range) NewEngine(w, h int, region fb.Rect, opts Options) (*Engine, error) {
	if !r.agrees(opts) {
		return nil, fmt.Errorf("coherence: engine tracer options %+v at %d shards differ from the range's %+v at %d",
			opts.tracerOptions(), opts.ObjSpaceShards, r.geo.topts, r.geo.shards)
	}
	full := fb.NewRect(0, 0, w, h)
	if region.Empty() || region.Intersect(full) != region {
		return nil, fmt.Errorf("coherence: region %v outside frame %dx%d", region, w, h)
	}
	e := &Engine{
		rng: r, W: w, H: h, Region: region, opts: opts,
		grid:      r.grid,
		nextFrame: r.start,
		buf:       fb.NewRegion(region),
		dirty:     bitset.New(region.Area()),
	}
	if r.grid != nil {
		e.runs = make([]pixelRun, region.Area())
	}
	// Everything is dirty for the first frame.
	e.dirty.SetAll()

	if opts.ObjSpaceShards != 0 {
		e.objStats = opts.ObjSpaceStats
		if e.objStats == nil {
			e.objStats = &objspace.Stats{}
		}
	}
	r.mu.Lock()
	r.stats.Engines++
	r.mu.Unlock()
	return e, nil
}

// layGrid finds the objects that move in the range and lays the
// registration grid, identical for every frame of the range, over the
// box their bounds sweep. A change between two frames is a mover entering
// or leaving a voxel, and every such voxel lies in that box, so nothing
// outside it needs registering. An unbounded mover (a plane) clips the box
// to Scene.BoundsAt over the range — geometry, camera and lights, padded
// past the planes. That clip is wider than the tracers' grids, which cover
// the bounded geometry alone, and must stay so: rays that meet a moving
// plane outside the geometry's box would register nowhere, and their
// pixels would go stale. Bounded movers need no clip: each frame's
// Scene.BoundsAt holds their boxes padded at least as far, so the clip
// would return the padded box bit for bit, after a pass over every object
// at every frame.
func (r *Range) layGrid() error {
	swept := vm.EmptyAABB()
	unbounded := false
	for _, o := range r.sc.Objects {
		moves := false
		for f := r.start; f+1 < r.end && !moves; f++ {
			moves = o.MovedBetween(f, f+1)
		}
		if !moves {
			continue
		}
		r.movers = append(r.movers, o)
		for f := r.start; f < r.end; f++ {
			b := o.BoundsAt(f)
			unbounded = unbounded || b.Size().MaxComponent() >= geom.HugeExtent
			swept = swept.Union(b)
		}
	}
	if len(r.movers) == 0 {
		return nil
	}
	bounds := swept.Pad(1e-3)
	if unbounded {
		seq := vm.EmptyAABB()
		for f := r.start; f < r.end; f++ {
			seq = seq.Union(r.sc.BoundsAt(f))
		}
		bounds = vm.AABB{Min: bounds.Min.Max(seq.Min), Max: bounds.Max.Min(seq.Max)}
	}

	nx, ny, nz := registrationResolution(bounds)
	if res := r.geo.topts.GridRes; res > 0 {
		nx, ny, nz = res, res, res
	}
	g, err := grid.New(bounds, nx, ny, nz)
	if err != nil {
		return fmt.Errorf("coherence: %w", err)
	}
	r.grid = g
	return nil
}

// registrationResolution picks the default registration-grid density:
// finer than the intersection-acceleration heuristic, because voxel size
// directly bounds how tightly object motion localises dirty pixels. The
// longest axis gets 32 voxels; other axes scale with extent.
func registrationResolution(bounds vm.AABB) (nx, ny, nz int) {
	const target = 32
	size := bounds.Size()
	maxExt := size.MaxComponent()
	if maxExt <= 0 {
		return 1, 1, 1
	}
	scale := func(ext float64) int {
		v := int(ext / maxExt * target)
		if v < 1 {
			return 1
		}
		return v
	}
	return scale(size.X), scale(size.Y), scale(size.Z)
}

// bytes is what the Range holds beside its frames: the movers' voxel
// lists and the changed-voxel sets.
func (r *Range) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, l := range r.lists {
		n += 4 * len(l)
	}
	for _, cs := range r.pairs {
		if cs.voxels != nil {
			n += cs.voxels.Len() / 8
		}
	}
	return n
}

// changes returns what changes between frames f and f+1, resolving the
// pair on the first request.
func (r *Range) changes(f int) changeSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := &r.pairs[f-r.start]
	if cs.done {
		return *cs
	}
	cs.done = true
	r.stats.ChangeSets++
	// A moving light invalidates every pixel: all shadow terms may
	// change. (The paper's scenes keep lights fixed.)
	for _, l := range r.sc.Lights {
		if l.MovedBetween(f, f+1) {
			cs.all = true
			return *cs
		}
	}
	for m, o := range r.movers {
		if !o.MovedBetween(f, f+1) {
			continue
		}
		if cs.voxels == nil {
			cs.voxels = bitset.New(r.grid.NumVoxels())
		}
		// Space the object leaves and space it enters both change. One
		// pair's f+1 is the next pair's f, so each position is voxelised
		// once.
		for _, at := range [2]int{f, f + 1} {
			for _, v := range r.voxelsAt(m, at) {
				cs.voxels.Set(int(v))
			}
		}
	}
	if cs.voxels != nil {
		cs.n = cs.voxels.Count()
	}
	return *cs
}

// voxelsAt returns the voxels mover m overlaps at frame f, voxelising its
// shape on the first request. Callers hold mu.
func (r *Range) voxelsAt(m, f int) []int32 {
	l := &r.lists[(f-r.start)*len(r.movers)+m]
	if *l == nil {
		r.scratch = voxelise(r.scratch[:0], r.grid, r.movers[m].ShapeAt(f))
		// max(n, 1): an empty list is still a non-nil one.
		n := len(r.scratch)
		if cap(r.arena)-len(r.arena) < max(n, 1) {
			r.arena = make([]int32, 0, max(n, arenaChunk))
		}
		off := len(r.arena)
		r.arena = append(r.arena, r.scratch...)
		*l = r.arena[off : off+n : off+n]
		r.stats.Voxelisations++
	}
	return *l
}

// voxelise appends to dst the voxels of g that shape s overlaps. The
// exact per-voxel test keeps thin slanted objects (the cradle strings)
// from dirtying their whole bounding box.
func voxelise(dst []int32, g *grid.Grid, s geom.Shape) []int32 {
	lo, hi, ok := g.VoxelRange(s.Bounds())
	if !ok {
		return dst
	}
	// Voxels are probed as centre ± half; the hair on half covers the
	// rounding between that and the walker's voxel boundaries.
	min, cell := g.Bounds().Min, g.CellSize()
	probe := geom.NewBoxProbe(s, cell.Scale(0.5*(1+1e-9)))
	for iz := lo[2]; iz <= hi[2]; iz++ {
		cz := min.Z + (float64(iz)+0.5)*cell.Z
		for iy := lo[1]; iy <= hi[1]; iy++ {
			cy := min.Y + (float64(iy)+0.5)*cell.Y
			for ix := lo[0]; ix <= hi[0]; ix++ {
				cx := min.X + (float64(ix)+0.5)*cell.X
				if probe.Overlaps(vm.V(cx, cy, cz)) {
					dst = append(dst, int32(g.Index(ix, iy, iz)))
				}
			}
		}
	}
	return dst
}
