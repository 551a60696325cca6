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
// the registrations of every pixel that worker traced last, in one arena
// of records: a pixel traced with any registration gets a header (pixel,
// n) and its n voxels, written straight onto the arena's tail while the
// pixel is traced, so the render hot path takes no lock and nothing is
// merged afterwards. A pixel's record dies when the pixel is traced again
// (retireRuns sets its pixel field to -1); makeRoom slides the live
// records down over the dead ones in place before the arena would grow.
type regCollector struct {
	e     *Engine
	slot  int32
	arena []int32
	// open is the offset of the record being written (its header), or
	// len(arena) between pixels; dead counts the entries of dead records.
	open, dead int
	// last[v] is the serial of the pixel that last registered voxel v:
	// one entry per pixel per voxel, however many of its rays cross v.
	last   []uint32
	serial uint32
	// registered counts the registrations made this frame.
	registered int
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

// beginPixel opens the record of pixel p on the arena's tail. Serials are
// never reused: when the counter wraps, last is wiped.
func (c *regCollector) beginPixel(p int32) {
	c.serial++
	if c.serial == 0 {
		clear(c.last)
		c.serial = 1
	}
	if cap(c.arena)-len(c.arena) < 2 {
		c.makeRoom(2)
	}
	c.open = len(c.arena)
	c.arena = append(c.arena, p, 0)
}

// endPixel closes the open record and returns the pixel's run; a pixel
// that registered nothing leaves no record.
func (c *regCollector) endPixel() pixelRun {
	off := c.open + 2
	n := len(c.arena) - off
	if n == 0 {
		c.arena = c.arena[:c.open]
		return pixelRun{}
	}
	c.arena[c.open+1] = int32(n)
	c.open = len(c.arena)
	c.registered += n
	return pixelRun{off: int32(off), slot: c.slot}
}

// ObserveRay implements trace.RayObserver: register the current pixel on
// every voxel the ray traverses up to its hit (or through the whole grid
// for escaping rays) that none of the pixel's earlier rays crossed.
func (c *regCollector) ObserveRay(r vm.Ray, tHit float64) {
	if r.Kind == vm.ShadowRay && c.e.opts.DisableShadowRegistration {
		return
	}
	if walk := c.e.grid.MaxWalk(); cap(c.arena)-len(c.arena) < walk {
		c.makeRoom(walk)
	}
	// With room for a whole walk, AppendVoxels writes into c.arena's own
	// array; keeping its result in a local and reslicing c.arena stores no
	// new pointer into the collector, so no GC write barrier runs per ray.
	n := len(c.arena)
	a := c.e.grid.AppendVoxels(c.arena, r, 0, tHit)
	for _, v := range a[n:] {
		if c.last[v] != c.serial {
			c.last[v] = c.serial
			a[n] = v
			n++
		}
	}
	c.arena = c.arena[:n]
}

// voxels returns the registrations of a pixel's run.
func (e *Engine) voxels(run pixelRun) []int32 {
	if run.off == 0 {
		return nil
	}
	a := e.collectors[run.slot].arena
	return a[run.off : run.off+a[run.off-1]]
}

// makeRoom gives the arena need free entries at its tail. When the dead
// records and the free tail together make a quarter of the arena it
// compacts in place; only when that leaves too little does the arena move
// to one twice its size. Compacting costs a pass over the arena, so
// reclaiming at least a quarter each time bounds it at four entries moved
// per entry written.
func (c *regCollector) makeRoom(need int) {
	if 4*(cap(c.arena)-len(c.arena)+c.dead) >= cap(c.arena) {
		c.compact()
		if cap(c.arena)-len(c.arena) >= need {
			return
		}
	}
	c.arena = append(make([]int32, 0, 2*len(c.arena)+need), c.arena...)
}

// compact slides the live records down over the dead ones, in arena
// order, and points their pixels' runs at the new offsets; the open
// record, if any, moves last. Between frames' retireRuns a live record's
// pixel was traced by this collector or by no one this frame, so no other
// tile worker reads or writes the runs it moves.
func (c *regCollector) compact() {
	a, runs := c.arena, c.e.runs
	w := 0
	for r := 0; r < c.open; {
		p, n := a[r], int(a[r+1])
		next := r + 2 + n
		if p >= 0 {
			if w < r {
				copy(a[w:], a[r:next])
				runs[p].off = int32(w + 2)
			}
			w += 2 + n
		}
		r = next
	}
	tail := copy(a[w:], a[c.open:])
	c.arena, c.open, c.dead = a[:w+tail], w, 0
}

// retireRuns kills the records of the pixels this frame traces, before
// any tile worker starts: the trace supersedes them, so their
// registrations leave the live count now, and no worker ever touches a
// record in another worker's arena. A pixel's new record may land in
// another worker's arena, so an arena whose worker writes little would
// keep its dead records until its own makeRoom ran; any arena left more
// dead than live is compacted here, which keeps the arenas within twice
// the live records at any thread count, at fewer entries moved than
// reclaimed.
func (e *Engine) retireRuns() {
	e.dirty.Runs(func(start, end int) {
		for p := start; p < end; p++ {
			run := e.runs[p]
			if run.off == 0 {
				continue
			}
			c := e.collectors[run.slot]
			n := int(c.arena[run.off-1])
			c.arena[run.off-2] = -1
			c.dead += 2 + n
			e.live -= n
			e.runs[p] = pixelRun{}
		}
	})
	for _, c := range e.collectors {
		if 2*c.dead > len(c.arena) {
			c.compact()
		}
	}
}

// sampleStride is the row spacing of an engine's first-frame sample.
const sampleStride = 8

// firstFrameTiles cuts the region for an engine's first frame, which
// traces every pixel: every sampleStride-th row first, then the strips
// between them, all at the tile width. reserveArenas sizes the arenas in
// between from the sample's records per pixel. (The first tiles in row
// order would not do: on Newton the top fifth of the image is wall, and
// registers nothing.)
func (e *Engine) firstFrameTiles() (sample, rest []fb.Rect, sampled int) {
	r := e.Region
	for y := r.Y0; y < r.Y1; y += sampleStride {
		sample = append(sample, fb.NewRect(r.X0, y, r.X1, y+1).Blocks(trace.TileW, 1)...)
		sampled += r.W()
		if y+1 < r.Y1 {
			rest = append(rest, fb.NewRect(r.X0, y+1, r.X1, min(y+sampleStride, r.Y1)).Blocks(trace.TileW, sampleStride)...)
		}
	}
	return sample, rest, sampled
}

// reserveArenas sizes the arenas after the first frame's sample: each of
// the n tile workers gets room for twice its share of the records the
// whole frame projects to — the frame's own, and as much again for the
// records of re-traced pixels before a compaction reclaims the old ones.
func (e *Engine) reserveArenas(n, sampled int) {
	held := 0
	for _, c := range e.collectors[:n] {
		held += len(c.arena)
	}
	e.reserved = 2 * held * e.Region.Area() / sampled
	share := (e.reserved + n - 1) / n
	for _, c := range e.collectors[:n] {
		if share > cap(c.arena) {
			c.arena = append(make([]int32, 0, share), c.arena...)
		}
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
func (e *Engine) renderTiles(newWorker func(trace.RayObserver) *trace.Worker, frame int, rep *FrameReport) {
	tiles := e.Region.Blocks(trace.TileW, trace.TileH)
	threads := min(e.threads(), len(tiles))
	// Without a grid nothing can change, so nothing is registered: there
	// are no collectors and the workers get no observer.
	if e.grid != nil {
		e.ensureCollectors(threads)
		e.retireRuns()
	}
	pool := tilePool{e: e, frame: frame, workers: make([]*trace.Worker, threads), tallies: make([]tally, threads)}
	for i := range pool.workers {
		var obs trace.RayObserver
		if e.grid != nil {
			obs = e.collectors[i]
		}
		pool.workers[i] = newWorker(obs)
	}
	if e.grid != nil && frame == e.rng.start {
		sample, rest, sampled := e.firstFrameTiles()
		pool.run(sample)
		e.reserveArenas(threads, sampled)
		tiles = rest
	}
	pool.run(tiles)

	// Frame barrier: merge per-worker results in slot order.
	for i, w := range pool.workers {
		rep.Rendered += pool.tallies[i].rendered
		rep.Copied += pool.tallies[i].copied
		rep.Rays.Merge(w.Counters)
		if e.grid != nil {
			c := e.collectors[i]
			rep.Registrations += uint64(c.registered)
			c.registered = 0
		}
	}
	e.live += int(rep.Registrations)
}

// tilePool is one frame's tile workers: worker i traces with collector i
// (when the engine registers) and counts into tallies[i].
type tilePool struct {
	e       *Engine
	frame   int
	workers []*trace.Worker
	tallies []tally
}

type tally struct {
	rendered, copied int
}

// run renders tiles on the pool, each tile claimed by the next free
// worker; one worker renders them on the calling goroutine.
func (p *tilePool) run(tiles []fb.Rect) {
	var next int64
	var wg sync.WaitGroup
	work := func(slot int) {
		var c *regCollector
		if p.e.grid != nil {
			c = p.e.collectors[slot]
		}
		var tr *timeline.Track
		if slot < len(p.e.opts.TileTracks) {
			tr = p.e.opts.TileTracks[slot]
		}
		for {
			t := int(atomic.AddInt64(&next, 1)) - 1
			if t >= len(tiles) {
				return
			}
			s := tr.Begin()
			r, cp := p.e.renderTile(p.workers[slot], c, tiles[t])
			tr.EndArg(timeline.OpTile, p.frame, s, int64(r))
			p.tallies[slot].rendered += r
			p.tallies[slot].copied += cp
		}
	}
	if len(p.workers) == 1 {
		work(0)
		return
	}
	for i := range p.workers {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			work(slot)
		}(i)
	}
	wg.Wait()
}

// renderTile traces the dirty pixels of one tile over the engine's
// framebuffer, where the clean ones already hold the previous frame; c is
// nil when the engine registers nothing. Tiles are disjoint, so run and
// framebuffer writes from concurrent tile workers never touch the same
// index.
func (e *Engine) renderTile(w *trace.Worker, c *regCollector, tile fb.Rect) (rendered, copied int) {
	dst := e.buf
	for y := tile.Y0; y < tile.Y1; y++ {
		for x := tile.X0; x < tile.X1; x++ {
			p := e.pixelIndex(x, y)
			if !e.dirty.Get(int(p)) {
				continue
			}
			rendered++
			if c == nil {
				dst.Set(x, y, w.TracePixel(x, y, e.W, e.H))
				continue
			}
			// Trace afresh; retireRuns has killed the pixel's old record.
			c.beginPixel(p)
			dst.Set(x, y, w.TracePixel(x, y, e.W, e.H))
			e.runs[p] = c.endPixel()
		}
	}
	return rendered, tile.Area() - rendered
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
