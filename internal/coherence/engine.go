// Package coherence implements the paper's central contribution: the
// predictive frame-coherence algorithm of §2 (Figure 3).
//
// While a frame is rendered, every ray spawned for a pixel — camera,
// reflected, refracted and shadow rays — is walked through a voxel grid
// over object space (3D-DDA) and the pixel is registered on every voxel
// the ray traverses. The one exception is a shadow segment that a static
// opaque object blocks: it stays dark whatever moves, so the tracer does
// not report it (trace.OccStaticBlocked). Between frame f and f+1 the engine finds the voxels
// in which change occurs (objects moving in or out) and marks every
// pixel registered on those voxels for recomputation; all other pixels
// keep the previous frame's colour. The engine renders each frame over
// the last one in a framebuffer of its own region's size, so a clean
// pixel costs nothing: it is already there.
//
// The voxel grid covers only the part of object space in which change
// can occur during the engine's frame range — the bounds, at every frame
// of it, of the objects that move in it — not the whole scene: every
// changed voxel is the voxel of a mover before or after a step, so a ray
// segment outside that box can never dirty its pixel and registers
// nothing. A range in which nothing moves has no grid at all and renders
// like the plain tracer.
//
// The pixel-voxel relation is stored pixel-major: each pixel owns one
// contiguous run of voxel indices in its tile worker's arena (see
// regCollector). Re-tracing a pixel points it at a new run, so a stale
// registration cannot exist and nothing is ever invalidated; change
// detection marks changed voxels in a bitset and scans the runs for
// them.
//
// Unlike Jevans' object-based temporal coherence, granularity is a single
// pixel (an NxN block mode is provided as the Jevans-style baseline for
// the ablation benches), shadow rays participate in registration, and the
// engine is built to run on subregions so the parallel decompositions of
// §3 can each own an engine. Engines over the same frames of the same
// scene — the blocks frame division hands one worker — share a Range:
// the scene checks, the movers and the grid, each frame's tracer or
// object-space cluster, each mover's voxels per frame and each frame
// pair's changed voxels are built once per Range, and an engine keeps
// only what depends on its region (its pixels' registrations, its dirty
// mask, its framebuffer).
//
// # Concurrency
//
// The engine's public methods must be called from a single goroutine,
// but RenderFrame internally fans its region out to an intra-frame tile
// pool of Options.Threads goroutines (default runtime.NumCPU()). Each
// tile worker owns a trace.Worker plus a registration collector, so no
// lock is taken on the hot path; per-tile results — pixels, ray
// counters, registration counts — are merged deterministically at the
// frame barrier. Output bytes and all reported counts are identical for
// every thread count, which is what lets the farm treat Threads as a
// pure speed knob (and the service cache key ignore it).
package coherence

import (
	"fmt"
	"time"
	"unsafe"

	"nowrender/internal/bitset"
	"nowrender/internal/fb"
	"nowrender/internal/grid"
	"nowrender/internal/objspace"
	"nowrender/internal/scene"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
)

// Options configure an Engine.
type Options struct {
	// GridRes overrides the automatic voxel resolution when positive.
	GridRes int
	// BlockGranularity dilates the dirty mask to NxN pixel blocks,
	// emulating Jevans' block-level coherence for comparison. 0 or 1 is
	// the paper's per-pixel granularity.
	BlockGranularity int
	// SamplesPerPixel is passed through to the tracer.
	SamplesPerPixel int
	// AAThreshold and AASamples enable the tracer's adaptive
	// antialiasing; coherent re-rendering stays pixel-exact because the
	// extra samples are deterministic per pixel.
	AAThreshold float64
	AASamples   int
	// Threads bounds the intra-frame tile pool RenderFrame fans out to.
	// 0 selects runtime.NumCPU(); 1 renders on the calling goroutine.
	// Output is byte-identical for every value.
	Threads int
	// ObjSpaceShards, when >= 2, renders every frame through an
	// object-space partition (internal/objspace): the frame's scene is
	// split into that many spatial shards and rays are forwarded between
	// shard owners instead of intersecting a replicated grid. Output is
	// byte-identical to the replicated path — the partition changes who
	// intersects a ray, never the hit.
	ObjSpaceShards int
	// ObjSpaceStats, when non-nil with ObjSpaceShards >= 2, accumulates
	// forwarding counters and resident sizes across the sequence; nil
	// lets the engine allocate its own (see Engine.ObjSpaceStats).
	ObjSpaceStats *objspace.Stats
	// DisableShadowRegistration turns off registration of shadow-ray
	// segments. This reproduces a coherence scheme without shadow
	// support: faster bookkeeping but *incorrect* images when a blocker
	// moves between a lit surface and the light. Exists only for the
	// ablation bench; leave false for correct rendering.
	DisableShadowRegistration bool
	// TimelineTrack, when non-nil, receives an OpChangeDetect span per
	// frame (arg = changed voxels); TileTracks, indexed by tile-worker
	// slot, receive OpTile spans from the intra-frame pool. Nil tracks
	// cost a single branch, so the hot path is instrumented
	// unconditionally. Instrumentation never affects output pixels.
	TimelineTrack *timeline.Track
	TileTracks    []*timeline.Track
}

// pixelRun locates a pixel's registrations: the voxels its rays
// traversed when it was last traced, each voxel once, are the record of
// collector slot whose voxels start at arena offset off, after its header
// (pixel, n) at off-2 (see regCollector). off is 0 for a pixel that
// registered nothing.
type pixelRun struct {
	off, slot int32
}

// Engine renders a region of an animation sequence exploiting frame
// coherence. It must be fed consecutive frames via RenderFrame, starting
// at the sequence's first frame. Callers drive an Engine from one
// goroutine; RenderFrame parallelises internally (see the package
// comment). Parallel farm schemes still give each worker its own engine
// over its own region or subsequence — the two levels compose — and what
// does not depend on the region comes from the engines' Range.
type Engine struct {
	// rng is the per-range state, shared with the other engines made
	// from it and read-only to all of them.
	rng    *Range
	W, H   int
	Region fb.Rect
	opts   Options

	// grid is the Range's registration grid; nil when nothing moves in
	// the range, and then runs and collectors stay empty too.
	grid *grid.Grid
	// runs[p] is region-local pixel p's current registration run. Tile
	// workers write disjoint entries (each pixel belongs to one tile).
	runs []pixelRun
	// live counts the registrations the runs hold (see
	// RegistrationCount); reserved is the arena entries the first frame
	// reserved over all tile workers.
	live, reserved int

	// buf holds the region of the last frame rendered, which the next
	// frame is rendered over in place.
	buf       *fb.Framebuffer
	nextFrame int
	// dirty is the region-local dirty mask for nextFrame. Frozen while
	// tiles render; rebuilt between frames (atomically during parallel
	// change detection).
	dirty *bitset.Bitset
	// lastSpans is the span form of the mask that drove the most recent
	// RenderFrame — exactly the pixels that call traced (storage reused
	// each frame; see LastSpans).
	lastSpans []fb.Span

	// collectors hold the per-tile-worker registration arenas (index =
	// worker slot).
	collectors []*regCollector

	// objStats accumulates object-space forwarding counters when
	// Options.ObjSpaceShards >= 2 (nil otherwise).
	objStats *objspace.Stats
}

// NewEngine prepares a coherence engine for frames [start, end) of the
// scene, rendering only pixels inside region of a W x H frame: NewRange
// and Range.NewEngine in one call, for the caller with a single engine.
// The Range is private to the engine and keeps no tracer beyond the frame
// being rendered. The scene validation, the O(frames) stationary-camera
// scan and the O(objects x frames) swept-bounds union run once per Range,
// so a caller that makes several engines over the same frames (a farm
// worker's blocks) should make one Range and call Range.NewEngine.
func NewEngine(sc *scene.Scene, w, h int, region fb.Rect, start, end int, opts Options) (*Engine, error) {
	r, err := newRange(sc, start, end, opts, true)
	if err != nil {
		return nil, err
	}
	return r.NewEngine(w, h, region, opts)
}

// ObjSpaceStats returns the engine's object-space counters, or nil when
// Options.ObjSpaceShards is off.
func (e *Engine) ObjSpaceStats() *objspace.Stats { return e.objStats }

// Grid exposes the registration grid, nil when nothing moves in the
// engine's range (tests inspect it).
func (e *Engine) Grid() *grid.Grid { return e.grid }

// pixelIndex maps frame coordinates to region-local index.
func (e *Engine) pixelIndex(x, y int) int32 {
	return int32((y-e.Region.Y0)*e.Region.W() + (x - e.Region.X0))
}

// DirtyMask returns a copy of the dirty mask that will drive the next
// RenderFrame call: exactly the pixels the algorithm predicts may change
// (Figure 2(b) is rendered from this).
func (e *Engine) DirtyMask() []bool {
	return e.dirty.Bools()
}

// LastSpans returns the pixels traced by the most recent RenderFrame as
// maximal horizontal runs in frame coordinates — every pixel outside
// these spans is byte-identical to the previous frame, which is what
// lets a worker ship a dirty-span delta instead of the full region. The
// slice is reused by the next RenderFrame call; callers that retain it
// across frames must copy. Nil before the first frame.
func (e *Engine) LastSpans() []fb.Span { return e.lastSpans }

// appendDirtySpans converts the region-local dirty mask to frame-space
// spans, splitting runs at row boundaries.
func (e *Engine) appendDirtySpans(out []fb.Span) []fb.Span {
	w := e.Region.W()
	e.dirty.Runs(func(start, end int) {
		for start < end {
			y := start / w
			rowEnd := (y + 1) * w
			seg := end
			if seg > rowEnd {
				seg = rowEnd
			}
			out = append(out, fb.Span{
				Y:  e.Region.Y0 + y,
				X0: e.Region.X0 + start - y*w,
				X1: e.Region.X0 + seg - y*w,
			})
			start = seg
		}
	})
	return out
}

// Frame returns the engine's framebuffer: its region of the frame the
// last Render produced, in frame coordinates (fb.NewRegion). The next
// Render overwrites it in place; a caller that keeps frames copies the
// region out (RenderFrame does).
func (e *Engine) Frame() *fb.Framebuffer { return e.buf }

// FrameReport describes one rendered frame.
type FrameReport struct {
	Frame int
	// Rendered is the number of pixels traced; Copied the number reused
	// from the previous frame.
	Rendered, Copied int
	// DirtyNext is the number of pixels predicted to change in the next
	// frame (0 after the last frame).
	DirtyNext int
	// Registrations counts voxel-pixel registrations made this frame and
	// ChangeVoxels the voxels some mover leaves or enters before the next
	// one; when it is non-zero, change detection scans every region
	// pixel's run for them.
	Registrations uint64
	ChangeVoxels  int
	// Forwarded counts rays forwarded between object-space shards this
	// frame (0 when Options.ObjSpaceShards is off).
	Forwarded uint64
	Rays      stats.RayCounters
	// Overhead is the time spent on coherence bookkeeping (ray
	// registration is folded into render time; this counts change
	// detection and mask building).
	Overhead time.Duration
}

// RenderFrame renders the engine's next frame and copies its region into
// dst (typically a full W x H framebuffer; only the engine's region is
// touched), one row span at a time: Render for a caller that keeps its
// frames.
func (e *Engine) RenderFrame(frame int, dst *fb.Framebuffer) (FrameReport, error) {
	if dst.Bounds().Intersect(e.Region) != e.Region {
		return FrameReport{}, fmt.Errorf("coherence: dst covers %v, not the region %v", dst.Bounds(), e.Region)
	}
	rep, err := e.Render(frame)
	if err != nil {
		return rep, err
	}
	dst.CopyRect(e.buf, e.Region)
	return rep, nil
}

// Render renders the engine's next frame over the last one in the
// engine's framebuffer (Frame). Frames must be rendered consecutively.
// Dirty pixels are traced by the intra-frame tile pool
// (Options.Threads); clean pixels keep the previous frame's colour.
func (e *Engine) Render(frame int) (FrameReport, error) {
	if frame != e.nextFrame {
		return FrameReport{}, fmt.Errorf("coherence: frames must be consecutive: want %d, got %d", e.nextFrame, frame)
	}
	if frame >= e.rng.end {
		return FrameReport{}, fmt.Errorf("coherence: frame %d beyond sequence end %d", frame, e.rng.end)
	}

	// No Observer here: each tile worker gets its own registration
	// collector in renderTiles. The frame's geometry is the Range's — the
	// first engine to reach the frame builds it for all of them — and with
	// object-space shards it is a sharded cluster: every tile worker routes
	// its rays through the same partition, so the byte-identity of the
	// sharded path carries straight through the coherence machinery.
	g, err := e.rng.geo.At(frame)
	if err != nil {
		return FrameReport{}, err
	}
	var fwd0 uint64
	if e.objStats != nil {
		fwd0 = e.objStats.RaysForwarded()
	}

	rep := FrameReport{Frame: frame}
	fwdSpan := e.opts.TimelineTrack.Begin()
	e.renderTiles(g.NewWorkers(e.objStats), frame, &rep)
	if e.objStats != nil {
		rep.Forwarded = e.objStats.RaysForwarded() - fwd0
		e.opts.TimelineTrack.EndArg(timeline.OpForward, frame, fwdSpan, int64(rep.Forwarded))
	}

	// Snapshot the mask that drove this frame as spans before it is
	// rebuilt for the next one — the wire protocol's delta frames ship
	// exactly these pixels.
	e.lastSpans = e.appendDirtySpans(e.lastSpans[:0])

	// Predict the dirty set for the next frame (Figure 3's final steps).
	overheadStart := time.Now()
	cdStart := e.opts.TimelineTrack.Begin()
	e.dirty.Reset()
	if frame+1 < e.rng.end {
		rep.ChangeVoxels = e.markChanges(frame)
		if e.opts.BlockGranularity > 1 {
			e.dilateToBlocks(e.opts.BlockGranularity)
		}
		rep.DirtyNext = e.dirty.Count()
	}
	e.opts.TimelineTrack.EndArg(timeline.OpChangeDetect, frame, cdStart, int64(rep.ChangeVoxels))
	rep.Overhead = time.Since(overheadStart)
	e.nextFrame++
	return rep, nil
}

// dilateToBlocks expands the dirty mask to n x n pixel blocks aligned to
// the region origin (the Jevans-style baseline).
func (e *Engine) dilateToBlocks(n int) {
	w, h := e.Region.W(), e.Region.H()
	bw := (w + n - 1) / n
	bh := (h + n - 1) / n
	blocks := make([]bool, bw*bh)
	for p := 0; p < e.dirty.Len(); p++ {
		if e.dirty.Get(p) {
			bx := (p % w) / n
			by := (p / w) / n
			blocks[by*bw+bx] = true
		}
	}
	for p := 0; p < e.dirty.Len(); p++ {
		bx := (p % w) / n
		by := (p / w) / n
		if blocks[by*bw+bx] {
			e.dirty.Set(p)
		}
	}
}

// bytes is what the engine holds: runs, masks, its framebuffer, and
// the arenas, counted the same at any thread count: what the first frame
// reserved or, once the live records (registrations and headers) outgrow
// half of that, twice them — the room makeRoom keeps — plus one tile
// worker's dedup table.
func (e *Engine) bytes() int {
	n := len(e.runs)*int(unsafe.Sizeof(pixelRun{})) + e.dirty.Len()/8 +
		len(e.lastSpans)*int(unsafe.Sizeof(fb.Span{})) + len(e.buf.Pix)
	if e.grid != nil {
		records := e.live
		for _, run := range e.runs {
			if run.off > 0 {
				records += 2
			}
		}
		n += 4 * (max(2*records, e.reserved) + e.grid.NumVoxels())
	}
	return n
}

// RegistrationCount returns the total number of live voxel-pixel
// registrations (memory accounting; the paper notes memory requirements
// are proportional to image area).
func (e *Engine) RegistrationCount() int { return e.live }

// RenderSequence is a single-processor convenience driver: it renders
// the engine's whole frame range, invoking emit for each finished frame,
// and returns aggregate run statistics (Table 1 columns (2)-(3) come
// from this path). emit may be nil.
func (e *Engine) RenderSequence(emit func(frame int, img *fb.Framebuffer, rep FrameReport) error) (stats.RunStats, error) {
	var run stats.RunStats
	startAll := time.Now()
	for f := e.rng.start; f < e.rng.end; f++ {
		img := fb.New(e.W, e.H)
		frameStart := time.Now()
		rep, err := e.RenderFrame(f, img)
		if err != nil {
			return run, err
		}
		fs := stats.FrameStats{
			Frame:    f,
			Rendered: rep.Rendered,
			Copied:   rep.Copied,
			Rays:     rep.Rays,
			Elapsed:  time.Since(frameStart),
		}
		run.AddFrame(fs)
		if emit != nil {
			if err := emit(f, img, rep); err != nil {
				return run, err
			}
		}
	}
	run.Total = time.Since(startAll)
	return run, nil
}

// FullRender renders every pixel of every frame of [start, end) without
// coherence — the baseline for Table 1 columns (1) and (4)-(5). Region
// semantics match the engine's. Serial by design: it is the
// single-processor cost reference; parallel no-coherence rendering goes
// through trace.RenderTiles (the farm's plain path).
func FullRender(sc *scene.Scene, w, h int, region fb.Rect, start, end int, samples int, emit func(frame int, img *fb.Framebuffer, rc stats.RayCounters) error) (stats.RunStats, error) {
	var run stats.RunStats
	startAll := time.Now()
	for f := start; f < end; f++ {
		ft, err := trace.New(sc, f, trace.Options{SamplesPerPixel: samples})
		if err != nil {
			return run, err
		}
		img := fb.New(w, h)
		frameStart := time.Now()
		ft.RenderRegion(img, region)
		fs := stats.FrameStats{
			Frame:    f,
			Rendered: region.Area(),
			Rays:     ft.Counters,
			Elapsed:  time.Since(frameStart),
		}
		run.AddFrame(fs)
		if emit != nil {
			if err := emit(f, img, ft.Counters); err != nil {
				return run, err
			}
		}
	}
	run.Total = time.Since(startAll)
	return run, nil
}
