package coherence

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nowrender/internal/bitset"
	"nowrender/internal/fb"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// threads resolves Options.Threads to a concrete pool size.
func (e *Engine) threads() int {
	if e.opts.Threads > 0 {
		return e.opts.Threads
	}
	return runtime.NumCPU()
}

// regCollector implements trace.RayObserver for one tile worker and owns
// the registrations of every pixel that worker traced last. Each pixel's
// run is written straight onto the arena's tail while the pixel is
// traced, so the render hot path takes no lock and nothing is merged or
// committed afterwards; runs superseded by a re-trace are left behind as
// garbage until compactArenas drops them.
type regCollector struct {
	e     *Engine
	slot  int32
	arena []int32
	// spare is the buffer compactArenas rewrites into; the two swap, so
	// the steady state allocates nothing.
	spare []int32
	// last[v] is the serial of the pixel that last registered voxel v:
	// one entry per pixel per voxel, however many of its rays cross v.
	last   []uint32
	serial uint32
	// mark is the arena length when the frame began; replaced counts the
	// registrations of the runs this frame's re-traces superseded.
	mark, replaced int
}

// ensureCollectors grows the reusable collector pool to n workers.
func (e *Engine) ensureCollectors(n int) {
	for len(e.collectors) < n {
		e.collectors = append(e.collectors, &regCollector{
			e:    e,
			slot: int32(len(e.collectors)),
			last: make([]uint32, e.grid.NumVoxels()),
		})
	}
}

// beginPixel starts the run of the next traced pixel and returns its
// arena offset. Serials are never reused: when the counter wraps, last
// is wiped.
func (c *regCollector) beginPixel() int {
	c.serial++
	if c.serial == 0 {
		clear(c.last)
		c.serial = 1
	}
	return len(c.arena)
}

// ObserveRay implements trace.RayObserver: register the current pixel on
// every voxel the ray traverses up to its hit (or through the whole grid
// for escaping rays) that none of the pixel's earlier rays crossed.
func (c *regCollector) ObserveRay(r vm.Ray, tHit float64) {
	if r.Kind == vm.ShadowRay && c.e.opts.DisableShadowRegistration {
		return
	}
	n := len(c.arena)
	c.arena = c.e.grid.AppendVoxels(c.arena, r, 0, tHit)
	for _, v := range c.arena[n:] {
		if c.last[v] != c.serial {
			c.last[v] = c.serial
			c.arena[n] = v
			n++
		}
	}
	c.arena = c.arena[:n]
}

// voxels returns the registrations of a pixel's run.
func (e *Engine) voxels(run pixelRun) []int32 {
	return e.collectors[run.slot].arena[run.off : run.off+int(run.n)]
}

// arenaSlack is the garbage compactArenas tolerates on top of the live
// registrations, so that tiny regions are not rewritten every frame.
const arenaSlack = 1 << 12

// compactArenas bounds registration memory (the paper: proportional to
// image area): once the arenas hold more garbage than live entries it
// rewrites every pixel's run, in pixel order, into its collector's spare
// buffer and swaps the two.
func (e *Engine) compactArenas() {
	total := 0
	for _, c := range e.collectors {
		total += len(c.arena)
	}
	e.peak = max(e.peak, total)
	if total <= 2*e.live+arenaSlack {
		return
	}
	for _, c := range e.collectors {
		if cap(c.spare) < cap(c.arena) {
			c.spare = make([]int32, 0, cap(c.arena))
		}
	}
	for p := range e.runs {
		run := &e.runs[p]
		c := e.collectors[run.slot]
		off := len(c.spare)
		c.spare = append(c.spare, e.voxels(*run)...)
		run.off = off
	}
	for _, c := range e.collectors {
		c.arena, c.spare = c.spare, c.arena[:0]
	}
}

// renderTiles renders the engine's region for one frame through the
// intra-frame tile pool, filling rep's per-frame counts. Determinism:
// every pixel's colour is a pure function of its coordinates and the
// frozen dirty mask decides trace-vs-copy per pixel, so tile order and
// thread count cannot change a single output byte; counters are merged
// in worker-slot order at the barrier, and which slot holds a pixel's
// run changes neither its contents nor any count (see regCollector).
// newWorker is the frame's Geometry.NewWorkers: over the replicated
// tracer or through the sharded cluster, it yields a trace.Worker wired
// to the given observer.
func (e *Engine) renderTiles(newWorker func(trace.RayObserver) *trace.Worker, frame int, dst *fb.Framebuffer, rep *FrameReport) {
	tiles := e.Region.Blocks(trace.TileW, trace.TileH)
	threads := e.threads()
	if threads > len(tiles) {
		threads = len(tiles)
	}
	// Without a grid nothing can change, so nothing is registered: there
	// are no collectors and the workers get no observer.
	if e.grid != nil {
		e.ensureCollectors(threads)
	}

	type tally struct {
		rendered, copied int
	}
	tallies := make([]tally, threads)
	workers := make([]*trace.Worker, threads)
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		var c *regCollector
		var obs trace.RayObserver
		if e.grid != nil {
			c = e.collectors[i]
			c.mark, c.replaced = len(c.arena), 0
			obs = c
		}
		w := newWorker(obs)
		workers[i] = w
		var tr *timeline.Track
		if i < len(e.opts.TileTracks) {
			tr = e.opts.TileTracks[i]
		}
		run := func(slot int) {
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= len(tiles) {
					return
				}
				s := tr.Begin()
				r, cp := e.renderTile(w, c, dst, tiles[t])
				tr.EndArg(timeline.OpTile, frame, s, int64(r))
				tallies[slot].rendered += r
				tallies[slot].copied += cp
			}
		}
		if threads == 1 {
			run(i)
			break
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			run(slot)
		}(i)
	}
	wg.Wait()

	// Frame barrier: merge per-worker results in slot order.
	for i := 0; i < threads; i++ {
		rep.Rendered += tallies[i].rendered
		rep.Copied += tallies[i].copied
		rep.Rays.Merge(workers[i].Counters)
		if e.grid != nil {
			c := e.collectors[i]
			rep.Registrations += uint64(len(c.arena) - c.mark)
			e.live -= c.replaced
		}
	}
	e.live += int(rep.Registrations)
	e.compactArenas()
}

// renderTile traces the dirty pixels of one tile and copies the clean
// ones; c is nil when the engine registers nothing. Tiles are disjoint,
// so run and framebuffer writes from concurrent tile workers never touch
// the same index.
func (e *Engine) renderTile(w *trace.Worker, c *regCollector, dst *fb.Framebuffer, tile fb.Rect) (rendered, copied int) {
	for y := tile.Y0; y < tile.Y1; y++ {
		for x := tile.X0; x < tile.X1; x++ {
			p := e.pixelIndex(x, y)
			if !e.dirty.Get(int(p)) {
				dst.CopyPixel(e.prev, x, y)
				copied++
				continue
			}
			rendered++
			if c == nil {
				dst.Set(x, y, w.TracePixel(x, y, e.W, e.H))
				continue
			}
			// Trace afresh; the new run supersedes the pixel's old one.
			off := c.beginPixel()
			dst.Set(x, y, w.TracePixel(x, y, e.W, e.H))
			c.replaced += int(e.runs[p].n)
			e.runs[p] = pixelRun{off: off, n: int32(len(c.arena) - off), slot: c.slot}
		}
	}
	return rendered, copied
}

// markChanges sets the dirty flag of every pixel registered on a voxel
// in which change occurs between frames f and f+1, returning the number
// of changed voxels. Which voxels those are is the same for every region
// and comes from the Range; the engine's share is the scan of its own
// pixels' runs.
func (e *Engine) markChanges(f int) int {
	cs := e.rng.changes(f)
	if cs.all {
		e.dirty.SetAll()
		return 0
	}
	if cs.n == 0 {
		return 0
	}

	// A pixel's run is exactly its valid registrations, so the pixels to
	// dirty are those whose run names a changed voxel. Pixel ranges fan
	// out over the thread pool (the caller takes the first); the only
	// shared writes are atomic dirty-mask bits.
	n := len(e.runs)
	threads := min(e.threads(), n)
	var wg sync.WaitGroup
	for i := 1; i < threads; i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.dirtyRuns(cs.voxels, lo, hi)
		}(i*n/threads, (i+1)*n/threads)
	}
	e.dirtyRuns(cs.voxels, 0, n/threads)
	wg.Wait()
	return cs.n
}

// dirtyRuns dirties the pixels of [lo, hi) registered on a changed voxel.
func (e *Engine) dirtyRuns(changed *bitset.Bitset, lo, hi int) {
	for p := lo; p < hi; p++ {
		for _, v := range e.voxels(e.runs[p]) {
			if changed.Get(int(v)) {
				e.dirty.SetAtomic(p)
				break
			}
		}
	}
}
