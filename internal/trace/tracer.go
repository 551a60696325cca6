// Package trace implements the recursive Whitted ray tracer at the core
// of the render pipeline: grid-accelerated intersection, Phong local
// shading with shadow rays, and recursive reflection/refraction, after
// the intensity model the paper quotes in §3:
//
//	I = I_local + k_rg*I_reflected + k_tg*I_transmitted
//
// # Concurrency
//
// A FrameTracer is split into two parts. The frame view — resolved
// geometry, the voxel grid, camera and shading parameters — is built
// once by New and is strictly read-only afterwards, so any number of
// goroutines may share it. All mutable render state (the mailbox ray
// stamps, the ray counters, the observer hook) lives in a Worker; each
// rendering goroutine owns one, obtained from NewWorker. The FrameTracer
// embeds a default Worker so single-goroutine callers keep the classic
// API: ft.TracePixel, ft.RenderRegion and ft.Counters work exactly as
// before, but are not safe for concurrent use — concurrent renderers
// call NewWorker per goroutine (see RenderRegionParallel and the
// coherence engine's tile pool).
package trace

import (
	"fmt"
	"math"

	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/scene"
	vm "nowrender/internal/vecmath"
)

// RayObserver receives every ray a worker casts, with the parameter of
// its nearest hit (math.Inf(1) for rays that escape), except a shadow
// segment that a static opaque object blocks (OccStaticBlocked). The coherence
// engine implements this to register pixels on the voxels each ray
// traverses; a nil observer costs nothing. Observers are per-Worker:
// each rendering goroutine notifies only its own observer, so observer
// implementations need no internal locking.
type RayObserver interface {
	ObserveRay(r vm.Ray, tHit float64)
}

// Intersector answers a Worker's two ray queries: the nearest hit along a
// ray, and the any-hit class of a shadow segment. A Worker's builtin
// intersector is the tracer's shared voxel grid plus its unbounded list;
// NewWorkerWith swaps in an alternative — the object-space cluster routes
// rays across spatial shards through one — without touching shading or
// recursion, which is what keeps alternative intersectors byte-identical
// whenever they return the same nearest hits and occlusion classes. Like
// a Worker, an Intersector is single-owner scratch: one goroutine
// intersects with it.
type Intersector interface {
	Intersect(r vm.Ray, tMin, tMax float64) (geom.Hit, *scene.ResolvedObject, bool)
	Occluded(r vm.Ray, tMin, tMax float64) Occlusion
}

// Options configure a FrameTracer.
type Options struct {
	// GridRes overrides the automatic voxel resolution when positive
	// (the ablation benches sweep this).
	GridRes int
	// Observer, when non-nil, is notified of every ray the tracer's
	// default worker casts. Workers created with NewWorker carry their
	// own observers.
	Observer RayObserver
	// SamplesPerPixel enables jittered supersampling when > 1. The
	// paper's runs use 1 sample (coherence needs deterministic pixels,
	// so jitter is seeded per pixel).
	SamplesPerPixel int
	// AAThreshold enables adaptive antialiasing when positive, in the
	// POV-Ray style the paper's "image quality set to high" implies: a
	// pixel whose corner samples contrast by more than the threshold
	// (max channel difference in [0,1]) receives AASamples extra
	// jittered samples. Deterministic per pixel.
	AAThreshold float64
	// AASamples is the extra sample count for high-contrast pixels
	// (default 8).
	AASamples int
	// MaxDepth overrides the scene's recursion bound when positive.
	MaxDepth int
}

// FrameTracer renders a single frame of a scene. Everything outside the
// embedded Worker is immutable after New and shared by all workers.
type FrameTracer struct {
	Scene *scene.Scene
	Frame int
	Cam   scene.Camera

	// The camera basis and tan(fov/2), fixed for the frame.
	camFwd, camRight, camUp vm.Vec3
	camHalfW                float64

	grid      *grid.Grid
	objs      []scene.ResolvedObject
	unbounded []int32 // object indices tested on every ray (planes)
	maxDepth  int
	samples   int
	aaThresh  float64
	aaSamples int

	// Worker is the tracer's own scratch for the single-goroutine
	// compatibility path; its methods and Counters field promote to the
	// FrameTracer.
	Worker
}

// New builds a tracer for one frame, resolving animated transforms and
// constructing the voxel grid. The grid is populated here and never
// mutated again: after New returns it is safe for concurrent traversal.
func New(sc *scene.Scene, frame int, opts Options) (*FrameTracer, error) {
	ft, err := NewView(sc, frame, opts)
	if err != nil {
		return nil, err
	}
	ft.objs = sc.ResolveFrame(frame)
	g, err := NewGrid(ft.objs, opts.GridRes)
	if err != nil {
		return nil, err
	}
	ft.grid = g
	for i, ro := range ft.objs {
		// Primitives whose bounds blow past the grid (planes) are kept
		// on the per-ray list so hits outside the grid region are not
		// lost.
		if Unbounded(ro) {
			ft.unbounded = append(ft.unbounded, int32(i))
		}
	}
	g.Fill(len(ft.objs), func(i int) (vm.AABB, bool) {
		return ft.objs[i].Bounds, !Unbounded(ft.objs[i])
	})
	ft.mailboxes = make([]uint64, len(ft.objs))
	return ft, nil
}

// Unbounded reports whether a resolved object is too large for any grid
// (a plane): it is tested once per ray instead of being voxelised.
func Unbounded(ro scene.ResolvedObject) bool {
	return ro.Bounds.Size().MaxComponent() >= geom.HugeExtent
}

// NewGrid returns the empty acceleration grid for a frame's resolved
// objects: gridRes voxels a side when positive, grid.AutoResolution
// otherwise. It is the one place the grid's box is chosen — trace.New
// fills the grid, and the object-space partition re-labels the voxel
// space of the same grid — and the box is the bounded objects' union
// padded by 1e-3, nothing more. Camera rays, and shadow rays to lights
// outside the box, enter it through StartWalk's clip; planes stay on the
// unbounded list. A frame with no bounded object gets a cube around the
// origin, in which no ray finds anything.
func NewGrid(objs []scene.ResolvedObject, gridRes int) (*grid.Grid, error) {
	bounds := vm.EmptyAABB()
	for _, ro := range objs {
		if !Unbounded(ro) {
			bounds = bounds.Union(ro.Bounds)
		}
	}
	if bounds.IsEmpty() {
		bounds = vm.NewAABB(vm.Splat(-1), vm.Splat(1))
	}
	bounds = bounds.Pad(1e-3)
	nx, ny, nz := gridRes, gridRes, gridRes
	if gridRes <= 0 {
		nx, ny, nz = grid.AutoResolution(bounds, len(objs))
	}
	g, err := grid.New(bounds, nx, ny, nz)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return g, nil
}

// NewView builds a FrameTracer that carries only the frame's camera and
// shading parameters — no geometry is resolved and no grid is built.
// Rendering through a view requires workers created with NewWorkerWith,
// whose intersector supplies all geometry (the object-space cluster's
// frame owner is the caller: it shades and recurses locally while the
// shards own the scene).
func NewView(sc *scene.Scene, frame int, opts Options) (*FrameTracer, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if frame < 0 || frame >= sc.Frames {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d)", frame, sc.Frames)
	}
	ft := &FrameTracer{
		Scene:    sc,
		Frame:    frame,
		Cam:      sc.CameraAt(frame),
		maxDepth: sc.MaxDepth,
		samples:  1,
	}
	// The camera basis is computed here, not lazily on the first ray:
	// tile workers share the tracer and only ever read it.
	ft.camFwd = ft.Cam.LookAt.Sub(ft.Cam.Pos).Norm()
	ft.camRight = ft.camFwd.Cross(ft.Cam.Up).Norm()
	ft.camUp = ft.camRight.Cross(ft.camFwd)
	ft.camHalfW = math.Tan(vm.Radians(ft.Cam.FOV) / 2)
	if opts.MaxDepth > 0 {
		ft.maxDepth = opts.MaxDepth
	}
	if opts.SamplesPerPixel > 1 {
		ft.samples = opts.SamplesPerPixel
	}
	ft.aaThresh = opts.AAThreshold
	ft.aaSamples = opts.AASamples
	if ft.aaSamples <= 0 {
		ft.aaSamples = 8
	}
	ft.Worker = Worker{ft: ft, observer: opts.Observer}
	return ft, nil
}

// NewWorker returns an independent rendering worker over the tracer's
// shared frame view, with its own mailboxes, ray counters and observer
// (nil for none). One worker per goroutine; workers may render
// concurrently with each other and with the tracer's default worker.
func (ft *FrameTracer) NewWorker(obs RayObserver) *Worker {
	return &Worker{
		ft:        ft,
		observer:  obs,
		mailboxes: make([]uint64, len(ft.objs)),
	}
}

// NewWorkerWith is NewWorker with the builtin grid intersector replaced:
// the worker's every query — nearest hits for primary, secondary and
// shadow-march rays, and the any-hit test of every shadow segment — goes
// through ix instead of the tracer's grid.
// Shading, recursion, jitter and ray accounting are unchanged, so two
// workers whose intersectors return the same hits produce byte-identical
// pixels and counters.
func (ft *FrameTracer) NewWorkerWith(obs RayObserver, ix Intersector) *Worker {
	return &Worker{
		ft:        ft,
		observer:  obs,
		ix:        ix,
		mailboxes: make([]uint64, len(ft.objs)),
	}
}

// Grid exposes the frame's voxel grid (the coherence engine shares it).
// Read-only after New.
func (ft *FrameTracer) Grid() *grid.Grid { return ft.grid }

// Objects exposes the resolved per-frame geometry. Read-only after New.
func (ft *FrameTracer) Objects() []scene.ResolvedObject { return ft.objs }

// CameraRay returns the primary ray through the centre of pixel (px, py)
// of a w x h image, with sub-pixel offsets (jx, jy) in [0,1). Pure
// function of the immutable camera; safe for concurrent use.
func (ft *FrameTracer) CameraRay(px, py, w, h int, jx, jy float64) vm.Ray {
	aspect := float64(h) / float64(w)
	halfH := ft.camHalfW * aspect
	// NDC in [-1,1], y flipped so row 0 is the top of the image.
	u := (2*(float64(px)+jx)/float64(w) - 1) * ft.camHalfW
	v := (1 - 2*(float64(py)+jy)/float64(h)) * halfH
	dir := ft.camFwd.Add(ft.camRight.Scale(u)).Add(ft.camUp.Scale(v)).Norm()
	return vm.Ray{Origin: ft.Cam.Pos, Dir: dir, Kind: vm.CameraRay}
}
