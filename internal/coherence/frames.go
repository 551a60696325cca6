package coherence

import (
	"fmt"
	"sync"
	"unsafe"

	"nowrender/internal/objspace"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
)

// Frames holds the geometry of frames [start, end) of one scene under one
// set of tracer options and one shard count: what a frame costs before
// its first ray, the same whatever region of it is rendered. That is the
// frame's replicated tracer, or with two or more shards its object-space
// cluster. A Range keeps one for its engines, and a farm worker one for
// its plain tasks, so that a worker's blocks of the same frames share one
// build per frame.
//
// A frame's geometry is built on the first request and kept until the
// Frames is dropped — except by the private Frames behind NewEngine,
// which builds it for the frame in flight and keeps none, so that a
// single-engine render's heap does not grow by a scene grid a frame.
// Fills are serialised by a mutex and never rewritten, so renders on any
// number of goroutines read what they were handed without it.
type Frames struct {
	sc         *scene.Scene
	start, end int // end exclusive
	topts      trace.Options
	shards     int

	mu sync.Mutex
	// held[f-start] is frame f's geometry once built; nil for the private
	// Frames.
	held               []Geometry
	asked, built, kept int
}

// Geometry is one frame's intersectable scene: the replicated tracer, or
// the object-space cluster. Read-only.
type Geometry struct {
	ft *trace.FrameTracer
	cl *objspace.Cluster
}

// NewWorkers returns the constructor of a render's tile workers: workers
// over the replicated tracer, or routing through the cluster with the
// render's forwarding traffic and the cluster's resident sizes counted in
// st (which the replicated path ignores).
func (g Geometry) NewWorkers(st *objspace.Stats) func(trace.RayObserver) *trace.Worker {
	if g.cl != nil {
		return g.cl.WorkersFor(st)
	}
	return g.ft.NewWorker
}

// bytes is what g holds: the cluster's shards as objspace accounts them,
// or the tracer, its resolved objects (each with a mailbox in the
// tracer's own worker) and its grid's voxel lists. The grid is charged a
// slice header a voxel, not its two flat tables: that is the model the
// virtual NOW's working sets were fitted on.
func (g Geometry) bytes() int {
	if g.cl != nil {
		n := 0
		for i := range g.cl.Partition().Shards() {
			n += int(g.cl.Shard(i).ResidentBytes)
		}
		return n
	}
	gr := g.ft.Grid()
	n := int(unsafe.Sizeof(*g.ft)) + len(g.ft.Objects())*int(unsafe.Sizeof(scene.ResolvedObject{})+8) +
		gr.NumVoxels()*int(unsafe.Sizeof([]int32(nil)))
	for v := range gr.NumVoxels() {
		n += 4 * len(gr.Items(v))
	}
	return n
}

// NewFrames prepares the geometry of frames [start, end) of sc, built
// with topts and, when shards is 2 or more, partitioned into that many
// object-space shards (0 is the replicated scene).
func NewFrames(sc *scene.Scene, start, end int, topts trace.Options, shards int) (*Frames, error) {
	return newFrames(sc, start, end, topts, shards, false)
}

func newFrames(sc *scene.Scene, start, end int, topts trace.Options, shards int, private bool) (*Frames, error) {
	if start < 0 || end > sc.Frames || start >= end {
		return nil, fmt.Errorf("coherence: bad frame range [%d,%d) for %d frames", start, end, sc.Frames)
	}
	if shards != 0 && (shards < 2 || shards > objspace.MaxShards) {
		return nil, fmt.Errorf("coherence: object-space shard count %d outside [2,%d]", shards, objspace.MaxShards)
	}
	fr := &Frames{sc: sc, start: start, end: end, topts: topts, shards: shards}
	if !private {
		fr.held = make([]Geometry, end-start)
	}
	return fr, nil
}

// Covers reports whether every frame of [start, end) of sc has its
// geometry here, built the way topts and shards ask.
func (fr *Frames) Covers(sc *scene.Scene, start, end int, topts trace.Options, shards int) bool {
	return fr.sc == sc && fr.start <= start && end <= fr.end && fr.topts == topts && fr.shards == shards
}

// At returns frame f's geometry, building it on the first request.
func (fr *Frames) At(f int) (Geometry, error) {
	if f < fr.start || f >= fr.end {
		return Geometry{}, fmt.Errorf("coherence: frame %d outside [%d,%d)", f, fr.start, fr.end)
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.asked++
	if fr.held != nil && (fr.held[f-fr.start] != Geometry{}) {
		return fr.held[f-fr.start], nil
	}
	var g Geometry
	var err error
	if fr.shards >= 2 {
		g.cl, err = objspace.Build(fr.sc, f, fr.topts, objspace.Options{Shards: fr.shards})
	} else {
		g.ft, err = trace.New(fr.sc, f, fr.topts)
	}
	if err != nil {
		return Geometry{}, err
	}
	fr.built++
	if fr.held != nil {
		fr.held[f-fr.start] = g
		fr.kept++
	}
	return g, nil
}

// WorkingSet returns the bytes a machine holds to render with fr: the
// geometry fr keeps and, when e (an engine over fr's Range) is non-nil,
// what e and the Range hold. The virtual NOW weighs it against a
// machine's memory; nothing on the wall clock asks.
func (fr *Frames) WorkingSet(e *Engine) int {
	n := 0
	fr.mu.Lock()
	for _, g := range fr.held {
		if g.ft != nil || g.cl != nil {
			n += g.bytes()
		}
	}
	fr.mu.Unlock()
	if e != nil {
		n += e.bytes() + e.rng.bytes()
	}
	return n
}

// Stats returns how many times a frame's geometry was asked for, how many
// frames' geometry was built, and how many of those are kept (always 0
// for the private Frames behind NewEngine) — how tests tell shared builds
// from repeated ones.
func (fr *Frames) Stats() (asked, built, kept int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.asked, fr.built, fr.kept
}
