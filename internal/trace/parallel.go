package trace

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nowrender/internal/fb"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// TileW and TileH are the tile dimensions the parallel render paths cut
// regions into. Small enough to balance load across uneven scene cost,
// large enough to amortise per-tile bookkeeping.
const (
	TileW = 32
	TileH = 32
)

// RenderRegionParallel renders region into dst using up to threads
// goroutines, each with its own Worker. Output bytes are identical to
// RenderRegion for any thread count: every pixel's colour is a pure
// function of its coordinates, and each pixel is written exactly once.
//
// threads <= 0 selects runtime.NumCPU(). The default worker's observer
// (Options.Observer) is not consulted here — observers are per-Worker,
// and this path creates observer-less workers; callers that need ray
// observation with parallelism use the coherence engine's tile pool,
// which wires a collector into each worker. The default worker's
// Counters are left untouched; per-worker counts are merged and
// returned via the workers' own Counters into ft.Counters.
func (ft *FrameTracer) RenderRegionParallel(dst *fb.Framebuffer, region fb.Rect, threads int) {
	ft.RenderRegionParallelTimed(dst, region, threads, -1, nil)
}

// RenderRegionParallelTimed is RenderRegionParallel with per-tile
// timeline instrumentation: tile worker i records an OpTile span on
// tracks[i] (frame-tagged, arg = tile pixel area) for every tile it
// renders. tracks may be nil or shorter than the pool — missing tracks
// are nil, and a nil track costs a single branch per tile, which is why
// the hot path carries the instrumentation unconditionally.
func (ft *FrameTracer) RenderRegionParallelTimed(dst *fb.Framebuffer, region fb.Rect, threads, frame int, tracks []*timeline.Track) {
	ft.RenderRegionParallelWorkers(dst, region, threads, frame, tracks, ft.NewWorker)
}

// RenderRegionParallelWorkers is RenderRegionParallelTimed with the tile
// pool's worker construction delegated to newWorker — the hook through
// which the object-space cluster installs its shard-routing intersector
// on every tile worker. Per-worker ray tallies are merged into
// ft.Counters at the barrier, in worker-slot order, same as the default
// path.
func (ft *FrameTracer) RenderRegionParallelWorkers(dst *fb.Framebuffer, region fb.Rect, threads, frame int, tracks []*timeline.Track, newWorker func(RayObserver) *Worker) {
	ft.Counters.Merge(RenderTiles(dst, dst.W, dst.H, region, threads, frame, tracks, newWorker))
}

// RenderTiles renders region of a width x height frame into dst, which
// may hold just that region (fb.NewRegion), through a pool of up to
// threads tile workers from newWorker (threads <= 0 selects
// runtime.NumCPU()), with tracks as in RenderRegionParallelTimed, and
// returns the workers' ray tallies merged in worker-slot order. The frame
// size, not dst's, aims the camera rays. It writes no tracer's counters,
// so any number of renders may share one frame's tracer or cluster — a
// farm worker's blocks do.
func RenderTiles(dst *fb.Framebuffer, width, height int, region fb.Rect, threads, frame int, tracks []*timeline.Track, newWorker func(RayObserver) *Worker) stats.RayCounters {
	var rays stats.RayCounters
	if threads <= 0 {
		threads = runtime.NumCPU()
	}
	tiles := region.Blocks(TileW, TileH)
	if threads == 1 || len(tiles) <= 1 {
		var tr *timeline.Track
		if len(tracks) > 0 {
			tr = tracks[0]
		}
		w := newWorker(nil)
		s := tr.Begin()
		w.renderRect(dst, width, height, region)
		tr.EndArg(timeline.OpTile, frame, s, int64(region.Area()))
		rays.Merge(w.Counters)
		return rays
	}
	if threads > len(tiles) {
		threads = len(tiles)
	}

	var next int64
	var wg sync.WaitGroup
	workers := make([]*Worker, threads)
	for i := 0; i < threads; i++ {
		w := newWorker(nil)
		workers[i] = w
		var tr *timeline.Track
		if i < len(tracks) {
			tr = tracks[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= len(tiles) {
					return
				}
				s := tr.Begin()
				w.renderRect(dst, width, height, tiles[t])
				tr.EndArg(timeline.OpTile, frame, s, int64(tiles[t].Area()))
			}
		}()
	}
	wg.Wait()
	for _, w := range workers {
		rays.Merge(w.Counters)
	}
	return rays
}
