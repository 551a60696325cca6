// Package objspace implements object-space data parallelism: the scene's
// uniform acceleration grid (internal/grid) is partitioned into contiguous
// spatial slabs — shards — owned by different workers, and rays are
// forwarded between shard owners instead of replicating the whole scene
// everywhere (after "Data Parallel Path Tracing in Object Space", Wald &
// Parker; ROADMAP item 3).
//
// # Partition
//
// A frame's full grid is the one trace.New fills — both take it from
// trace.NewGrid, over the bounded geometry's box — then its voxel index
// space is split into Shards contiguous slabs balanced by geometry mass
// (see MakePartition). Slab boundaries lie on voxel planes and are
// computed with the same float arithmetic the grid itself uses, so
// every party routing rays agrees bit-exactly on where one shard ends
// and the next begins.
//
// Each shard holds only the geometry overlapping its slab: whole objects
// whose bounds overlap, and for large triangle meshes a view of the mesh
// that tests just the triangles whose bounds overlap the slab — which is
// what makes per-shard resident scene size genuinely shrink as the shard
// count grows. Unbounded primitives (planes) are replicated on the frame
// owner and tested once per ray, exactly as the replicated tracer's
// unbounded list is.
//
// # Ray routing and termination
//
// A ray visits shards front-to-back along the partition axis, and each
// shard answers it as trace.Worker answers a ray on the replicated grid:
// it steps its own sub-grid (a grid.Walker, per-shard mailboxes), and
// every candidate reports only IntersectT's parameter and part. When the
// walk leaves the slab without settling the ray, the ray state — the ray,
// its t-range and the running best as (object, t, part), 104 bytes — is
// serialized through the forwarding codec and handed to the next shard
// owner. A nearest-hit query terminates at the first shard whose exit
// parameter the running best does not exceed: geometry in later slabs can
// only produce farther hits, because any object able to hit earlier
// overlaps an earlier slab and was already tested there. The frame owner
// then completes the one winning hit (Shape.HitAt), shades and recurses
// locally. A shadow segment takes the tracer's any-hit query first: it
// crosses every slab it spans until a static opaque surface blocks it
// (one that moves may hide a static one further on), and only
// a segment meeting nothing but transmissive surfaces marches nearest
// hits through the same routing.
//
// Every hop is serialized through the codec even in-process (floats
// round-trip bit-exactly via IEEE-754 bits), so forwarded-ray and
// forwarding-byte counts are honest measurements of what a distributed
// deployment would ship, and the wire format is exercised by every
// render. The correctness invariant, pinned by golden tests: sharded
// rendering is byte-identical to the replicated path at every shard
// count.
package objspace

import (
	"fmt"
	"sort"

	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// MaxShards bounds the shard counts accepted from flags and off the
// wire. Slab partitions thinner than this stop paying off long before.
const MaxShards = 64

// Options configure a cluster build.
type Options struct {
	// Shards is the slab count; values < 2 are rejected (a 1-shard
	// cluster is the replicated path — render without objspace instead).
	Shards int
}

// Partition is the slab decomposition of one grid's voxel index space:
// the split axis and the voxel-plane cut positions. It is tiny and
// shared verbatim by every party routing rays.
type Partition struct {
	Bounds vm.AABB
	// Axis is the split axis (0 = X, 1 = Y, 2 = Z); Cell the full grid's
	// voxel edge length along it.
	Axis int
	Cell float64
	// Slabs holds each shard's [v0, v1) voxel range along Axis.
	Slabs [][2]int
	// dims is the full grid's voxel counts; shard sub-grids reuse the
	// non-axis counts so traversal density matches the replicated grid.
	dims [3]int
}

// MakePartition splits a grid's voxel index space into shards contiguous
// slabs, balanced by geometry mass rather than raw voxel count: each
// bounded object spreads its triangle count (1 for analytic primitives)
// uniformly over the voxel range it overlaps, the split axis is the one
// whose histogram spreads geometry across the most voxel planes (ties
// broken toward more voxels, then the longer extent, then the lower
// index), and the cuts are the equal-mass quantiles of that histogram.
// Mass balancing is what makes per-shard resident size actually shrink
// with the shard count — geometry clusters inside its box, so
// equal-voxel slabs can leave whole shards empty. Deterministic: every
// party derives the same partition from the same frame.
func MakePartition(g *grid.Grid, shards int, objs []scene.ResolvedObject) Partition {
	nx, ny, nz := g.Dims()
	dims := [3]int{nx, ny, nz}
	var hist [3][]float64
	for a := 0; a < 3; a++ {
		hist[a] = make([]float64, dims[a])
	}
	for i := range objs {
		ro := &objs[i]
		if trace.Unbounded(*ro) {
			continue
		}
		lo, hi, ok := g.VoxelRange(ro.Bounds)
		if !ok {
			continue
		}
		w := 1.0
		if m, isMesh := ro.Shape.(*geom.Mesh); isMesh {
			w = float64(len(m.Tris))
		}
		for a := 0; a < 3; a++ {
			per := w / float64(hi[a]-lo[a]+1)
			for v := lo[a]; v <= hi[a]; v++ {
				hist[a][v] += per
			}
		}
	}
	size := g.Bounds().Size()
	spread := func(a int) int {
		n := 0
		for _, x := range hist[a] {
			if x > 0 {
				n++
			}
		}
		return n
	}
	axis := 0
	for a := 1; a < 3; a++ {
		sa, sx := spread(a), spread(axis)
		if sa > sx ||
			(sa == sx && dims[a] > dims[axis]) ||
			(sa == sx && dims[a] == dims[axis] && size.Axis(a) > size.Axis(axis)) {
			axis = a
		}
	}
	if shards > dims[axis] {
		shards = dims[axis]
	}
	if shards < 1 {
		shards = 1
	}
	return Partition{
		Bounds: g.Bounds(),
		Axis:   axis,
		Cell:   g.CellSize().Axis(axis),
		Slabs:  weightedCuts(hist[axis], shards),
		dims:   dims,
	}
}

// weightedCuts splits voxel range [0, n) into k contiguous slabs of
// approximately equal cumulative weight: cut i lands on the smallest
// voxel plane where the running sum reaches the i-th k-quantile, clamped
// so every slab keeps at least one voxel. Zero total weight degenerates
// to the equal-count split.
func weightedCuts(w []float64, k int) [][2]int {
	n := len(w)
	cum := make([]float64, n+1)
	for i, x := range w {
		cum[i+1] = cum[i] + x
	}
	if cum[n] <= 0 {
		return partition.ShardMap{Start: 0, End: n, N: k}.Ranges()
	}
	// Cuts are confined to the occupied voxel span: leading and trailing
	// empty planes attach to the first and last slab instead of becoming
	// geometry-free shards.
	occLo, occHi := 0, n // occupied span [occLo, occHi)
	for occLo < n && w[occLo] <= 0 {
		occLo++
	}
	for occHi > occLo && w[occHi-1] <= 0 {
		occHi--
	}
	if occHi-occLo < k {
		// Occupied span too thin to give every shard a voxel: use the
		// whole range.
		occLo, occHi = 0, n
	}
	cuts := make([]int, k+1)
	cuts[k] = n
	for i := 1; i < k; i++ {
		target := cum[n] * float64(i) / float64(k)
		v := sort.Search(n+1, func(j int) bool { return cum[j] >= target })
		if lo := max(cuts[i-1]+1, occLo+i); v < lo {
			v = lo
		}
		if hi := occHi - (k - i); v > hi {
			v = hi
		}
		cuts[i] = v
	}
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = [2]int{cuts[i], cuts[i+1]}
	}
	return out
}

// Shards returns the partition's slab count.
func (p *Partition) Shards() int { return len(p.Slabs) }

// SlabBounds returns shard i's spatial slab: the full bounds with the
// partition axis clamped to the slab's voxel planes. Interior planes are
// computed as Min + k*cell — the exact arithmetic grid.VoxelBounds uses —
// and the outermost faces reuse the full bounds' own values, so adjacent
// slabs share boundary coordinates bit-exactly.
func (p *Partition) SlabBounds(i int) vm.AABB {
	b := p.Bounds
	v0, v1 := p.Slabs[i][0], p.Slabs[i][1]
	min, max := b.Min, b.Max
	if v0 > 0 {
		min = min.SetAxis(p.Axis, b.Min.Axis(p.Axis)+float64(v0)*p.Cell)
	}
	if last := p.Slabs[len(p.Slabs)-1][1]; v1 < last {
		max = max.SetAxis(p.Axis, b.Min.Axis(p.Axis)+float64(v1)*p.Cell)
	}
	return vm.AABB{Min: min, Max: max}
}

// Cluster is one frame's sharded scene: the partition, the per-shard
// geometry and sub-grids, and the frame owner's view (camera, shading
// parameters, and the global object table rays resolve against). Build
// once per frame; everything is read-only afterwards, so any number of
// workers (from NewWorker or WorkersFor) may route rays concurrently, for
// any number of tasks.
type Cluster struct {
	view  *trace.FrameTracer
	part  Partition
	shard []*Shard
	// objs is the frame owner's global object table (materials, and the
	// whole shapes every winning hit is completed on); unbounded lists the
	// plane-like object ids tested once per ray, in the replicated
	// tracer's order.
	objs      []scene.ResolvedObject
	unbounded []int32
}

// Build constructs the sharded scene for one frame. The full grid comes
// from trace.NewGrid, as trace.New's does, so the partition is a pure
// re-labelling of the replicated grid's voxel space.
func Build(sc *scene.Scene, frame int, topts trace.Options, o Options) (*Cluster, error) {
	if o.Shards < 2 || o.Shards > MaxShards {
		return nil, fmt.Errorf("objspace: shard count %d outside [2,%d]", o.Shards, MaxShards)
	}
	view, err := trace.NewView(sc, frame, topts)
	if err != nil {
		return nil, err
	}
	objs := sc.ResolveFrame(frame)
	full, err := trace.NewGrid(objs, topts.GridRes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		view: view,
		part: MakePartition(full, o.Shards, objs),
		objs: objs,
	}
	for i, ro := range objs {
		if trace.Unbounded(ro) {
			c.unbounded = append(c.unbounded, int32(i))
		}
	}
	c.shard = make([]*Shard, c.part.Shards())
	for i := range c.shard {
		s, err := buildShard(&c.part, i, objs)
		if err != nil {
			return nil, err
		}
		c.shard[i] = s
	}
	return c, nil
}

// ReplicatedResident reports the replicated (single-copy) scene's
// resident size for one frame under the same accounting the shard
// builder uses: the shards=1 baseline per-shard residents are compared
// against. It is computed by building a one-slab partition over the full
// frame grid, so mesh handling, grid-structure accounting, and
// unbounded-object exclusion match the sharded rows exactly.
func ReplicatedResident(sc *scene.Scene, frame int, topts trace.Options) (uint64, error) {
	objs := sc.ResolveFrame(frame)
	full, err := trace.NewGrid(objs, topts.GridRes)
	if err != nil {
		return 0, err
	}
	part := MakePartition(full, 1, objs)
	s, err := buildShard(&part, 0, objs)
	if err != nil {
		return 0, err
	}
	return s.ResidentBytes, nil
}

// Tracer returns the frame owner's view (camera and shading parameters;
// no geometry). Read-only after Build.
func (c *Cluster) Tracer() *trace.FrameTracer { return c.view }

// Partition returns the cluster's slab decomposition.
func (c *Cluster) Partition() *Partition { return &c.part }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shard[i] }

// NewWorker returns a rendering worker whose every intersection routes
// through the cluster's shards with per-hop serialization, counted
// nowhere. One worker per goroutine, as with trace.NewWorker.
func (c *Cluster) NewWorker(obs trace.RayObserver) *trace.Worker {
	return c.view.NewWorkerWith(obs, c.newRouter(nil))
}

// WorkersFor is NewWorker for a task that accounts its use of the cluster
// in st: st records the cluster's per-shard resident sizes now, and every
// worker the returned function makes counts the rays it forwards there.
// Tasks sharing one cluster each pass their own Stats, so a forward
// counts toward the task whose worker routed it. A nil st counts nothing.
func (c *Cluster) WorkersFor(st *Stats) func(trace.RayObserver) *trace.Worker {
	if st != nil {
		st.observe(c)
	}
	return func(obs trace.RayObserver) *trace.Worker {
		return c.view.NewWorkerWith(obs, c.newRouter(st))
	}
}
