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

// RenderRegionParallelWorkers renders region into dst using up to
// threads goroutines (threads <= 0 selects runtime.NumCPU()), each with
// its own Worker from newWorker — ft.NewWorker, or the hook through
// which the object-space cluster installs its shard-routing intersector
// on every tile worker. Output bytes are identical to RenderRegion for
// any thread count: every pixel's colour is a pure function of its
// coordinates, and each pixel is written exactly once. Tile worker i
// records an OpTile span on tracks[i] (frame-tagged, arg = tile pixel
// area) for every tile it renders; tracks may be nil or shorter than the
// pool, and a nil track costs a single branch per tile. Per-worker ray
// tallies are merged into ft.Counters at the barrier, in worker-slot
// order; the default worker's own Counters are left untouched.
func (ft *FrameTracer) RenderRegionParallelWorkers(dst *fb.Framebuffer, region fb.Rect, threads, frame int, tracks []*timeline.Track, newWorker func(RayObserver) *Worker) {
	ft.Counters.Merge(RenderTiles(dst, dst.W, dst.H, region, threads, frame, tracks, newWorker))
}

// RenderTiles renders region of a width x height frame into dst, which
// may hold just that region (fb.NewRegion), through a pool of up to
// threads tile workers from newWorker (threads <= 0 selects
// runtime.NumCPU()), with tracks as in RenderRegionParallelWorkers, and
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
