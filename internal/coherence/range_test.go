package coherence

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	vm "nowrender/internal/vecmath"
)

// Block engines made from one Range share its tracers, voxel lists and
// changed sets. These tests hold them to what engines with private Ranges
// produce — every pixel and every count — and the Range to building each
// thing once.

// blockRender is what a set of block engines produced: the assembled
// frames and each engine's report per frame.
type blockRender struct {
	frames []*fb.Framebuffer
	reps   [][]FrameReport // [block][frame - start]
}

// renderBlocks drives every engine through [start, end), the engines
// spread over the given number of goroutines (1 = one after the other on
// the caller's). Each engine renders into its own buffer — the first
// frame's Clone reads all of it — and its region is copied into the
// assembled frame.
func renderBlocks(t *testing.T, engines []*Engine, w, h, start, end, goroutines int) blockRender {
	t.Helper()
	out := blockRender{frames: make([]*fb.Framebuffer, end-start), reps: make([][]FrameReport, len(engines))}
	for i := range out.frames {
		out.frames[i] = fb.New(w, h)
	}
	var next atomic.Int64
	drive := func() {
		for {
			b := int(next.Add(1)) - 1
			if b >= len(engines) {
				return
			}
			e := engines[b]
			buf := fb.New(w, h)
			for f := start; f < end; f++ {
				rep, err := e.RenderFrame(f, buf)
				if err != nil {
					t.Errorf("block %d frame %d: %v", b, f, err)
					return
				}
				rep.Overhead = 0
				out.reps[b] = append(out.reps[b], rep)
				out.frames[f-start].CopyRect(buf, e.Region)
			}
		}
	}
	if goroutines <= 1 {
		drive()
		return out
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive()
		}()
	}
	wg.Wait()
	return out
}

// privateEngines makes one engine with its own Range per block.
func privateEngines(t *testing.T, sc *scene.Scene, w, h, start, end int, blocks []fb.Rect, opts Options) []*Engine {
	t.Helper()
	engines := make([]*Engine, len(blocks))
	for i, b := range blocks {
		e, err := NewEngine(sc, w, h, b, start, end, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

// sharedEngines makes one Range and an engine per block from it.
func sharedEngines(t *testing.T, sc *scene.Scene, w, h, start, end int, blocks []fb.Rect, opts Options) (*Range, []*Engine) {
	t.Helper()
	r, err := NewRange(sc, start, end, opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, len(blocks))
	for i, b := range blocks {
		if engines[i], err = r.NewEngine(w, h, b, opts); err != nil {
			t.Fatal(err)
		}
	}
	return r, engines
}

// fullFrames is the plain render of [start, end).
func fullFrames(t *testing.T, sc *scene.Scene, w, h, start, end int) []*fb.Framebuffer {
	t.Helper()
	var want []*fb.Framebuffer
	if _, err := FullRender(sc, w, h, fb.NewRect(0, 0, w, h), start, end, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			want = append(want, img)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	return want
}

// sameRender fails unless got has want's pixels and want's reports.
func sameRender(t *testing.T, name string, got, want blockRender) {
	t.Helper()
	for f := range want.frames {
		if !got.frames[f].Equal(want.frames[f]) {
			t.Errorf("%s: frame %d: %d pixels differ", name, f, got.frames[f].DiffCount(want.frames[f]))
		}
	}
	for b := range want.reps {
		if len(got.reps[b]) != len(want.reps[b]) {
			t.Errorf("%s: block %d rendered %d frames, want %d", name, b, len(got.reps[b]), len(want.reps[b]))
			continue
		}
		for f, w := range want.reps[b] {
			if g := got.reps[b][f]; g != w {
				t.Errorf("%s: block %d frame %d: report %+v, want %+v", name, b, f, g, w)
			}
		}
	}
}

// TestSharedRangeMatchesPrivate: the twelve 40x40 block engines frame
// division gives a worker, off one shared Range == the same engines with
// a private Range each == the plain render, pixel for pixel and — shared
// against private — field for field of every FrameReport; then the shared
// blocks again from four goroutines at once, the way nothing yet drives
// them, at both ends of the tile-pool width.
func TestSharedRangeMatchesPrivate(t *testing.T) {
	const w, h = 120, 160
	cases := []struct {
		name   string
		sc     *scene.Scene
		frames int
	}{
		{"newton", scenes.Newton(60), 60},
		{"bouncing", scenes.Bouncing(20), 20},
	}
	blocks := fb.NewRect(0, 0, w, h).Blocks(40, 40)
	for _, c := range cases {
		if testing.Short() {
			c.frames = 8
		}
		plain := fullFrames(t, c.sc, w, h, 0, c.frames)
		opts := Options{Threads: 1}
		private := renderBlocks(t, privateEngines(t, c.sc, w, h, 0, c.frames, blocks, opts), w, h, 0, c.frames, 1)
		for f := range plain {
			if !private.frames[f].Equal(plain[f]) {
				t.Errorf("%s: private engines, frame %d: %d pixels differ from the plain render", c.name, f, private.frames[f].DiffCount(plain[f]))
			}
		}
		r, engines := sharedEngines(t, c.sc, w, h, 0, c.frames, blocks, opts)
		sameRender(t, c.name+" shared", renderBlocks(t, engines, w, h, 0, c.frames, 1), private)

		// Twelve engines, each frame's tracer built once and each mover
		// voxelised at most once per frame.
		st := r.Stats()
		if st.Movers == 0 {
			t.Fatalf("%s: no movers; the case shares nothing", c.name)
		}
		if st.Engines != len(blocks) || st.FramesBuilt != c.frames || st.FramesHeld != c.frames || st.ChangeSets != c.frames-1 ||
			st.Voxelisations == 0 || st.Voxelisations > c.frames*st.Movers {
			t.Errorf("%s: twelve engines over %d frames built %+v", c.name, c.frames, st)
		}

		for _, threads := range []int{1, 8} {
			opts := Options{Threads: threads}
			_, engines := sharedEngines(t, c.sc, w, h, 0, c.frames, blocks, opts)
			sameRender(t, c.name+" concurrent", renderBlocks(t, engines, w, h, 0, c.frames, 4), private)
		}
	}
}

// TestSharedRangeBoxCases takes the motion-box scenes — a mover that
// rests and resumes, a range that starts mid-animation, a light that
// moves, nothing moving at all — through four block engines off one
// Range, against private Ranges and the plain render.
func TestSharedRangeBoxCases(t *testing.T) {
	blocks := fb.NewRect(0, 0, tw, th).Blocks(tw/2, th/2)
	for _, c := range boxCases() {
		opts := Options{Threads: 1}
		plain := fullFrames(t, c.sc, tw, th, c.start, c.end)
		private := renderBlocks(t, privateEngines(t, c.sc, tw, th, c.start, c.end, blocks, opts), tw, th, c.start, c.end, 1)
		r, engines := sharedEngines(t, c.sc, tw, th, c.start, c.end, blocks, opts)
		shared := renderBlocks(t, engines, tw, th, c.start, c.end, 1)
		sameRender(t, c.name, shared, private)
		for f := range plain {
			if !shared.frames[f].Equal(plain[f]) {
				t.Errorf("%s: frame %d: %d pixels differ from the plain render", c.name, c.start+f, shared.frames[f].DiffCount(plain[f]))
			}
		}
		st := r.Stats()
		n := c.end - c.start
		if st.FramesBuilt != n || st.ChangeSets != n-1 || st.Voxelisations > n*st.Movers {
			t.Errorf("%s: four engines over %d frames built %+v", c.name, n, st)
		}
		switch c.name {
		case "no-mover", "one-frame":
			// Nothing can change: no grid, no list.
			if r.grid != nil || st.Movers != 0 || st.Voxelisations != 0 {
				t.Errorf("%s: grid %v, stats %+v", c.name, r.grid != nil, st)
			}
		case "moving-light-only":
			// Everything is dirty every frame and nothing is voxelised.
			if st.Voxelisations != 0 {
				t.Errorf("%s: %d voxelisations under a light that always moves", c.name, st.Voxelisations)
			}
			for b := range shared.reps {
				for f, rep := range shared.reps[b] {
					if rep.Rendered != blocks[b].Area() || rep.ChangeVoxels != 0 {
						t.Errorf("%s: block %d frame %d: %+v", c.name, b, f, rep)
					}
				}
			}
		case "rest-and-move":
			// Each ball moves in three of the seven pairs and is voxelised
			// at the five frames those touch (left 0-2 and 6-7, right 2-4
			// and 6-7), each once for the four engines; a mover at rest
			// costs nothing.
			if st.Voxelisations != 10 {
				t.Errorf("%s: %d voxelisations, want 10", c.name, st.Voxelisations)
			}
		}
	}
}

// TestRangeRefusals: the two halves of NewEngine refuse what it refused,
// in its words.
func TestRangeRefusals(t *testing.T) {
	s := movingScene(5)
	r, err := NewRange(s, 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []fb.Rect{fb.NewRect(0, 0, tw+1, th), fb.NewRect(-1, 0, tw, th), {}} {
		_, err := r.NewEngine(tw, th, region, Options{})
		if err == nil || !strings.Contains(err.Error(), "outside frame 60x48") {
			t.Errorf("region %v: %v", region, err)
		}
	}
	if _, err := r.NewEngine(tw, th, fb.NewRect(0, 0, tw, th), Options{SamplesPerPixel: 4}); err == nil {
		t.Error("an engine with other tracer options accepted")
	}
	if _, err := NewRange(s, 0, 6, Options{}); err == nil || !strings.Contains(err.Error(), "bad frame range [0,6) for 5 frames") {
		t.Errorf("range beyond the scene: %v", err)
	}
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		c := scene.DefaultCamera()
		c.Pos = vm.V(float64(max(f-2, 0)), 2, 10)
		return c
	})
	if _, err := NewRange(s, 0, 5, Options{}); err == nil || err.Error() != "coherence: camera moves at frame 3; split the sequence first" {
		t.Errorf("moving camera: %v", err)
	}
	if _, err := NewRange(s, 0, 3, Options{}); err != nil {
		t.Errorf("the frames before the camera moves: %v", err)
	}

	if !r.Matches(r.sc, 0, 5, Options{Threads: 3, BlockGranularity: 2}) {
		t.Error("options that do not reach the tracer must not tell Ranges apart")
	}
	if r.Matches(movingScene(5), 0, 5, Options{}) || r.Matches(r.sc, 1, 5, Options{}) ||
		r.Matches(r.sc, 0, 4, Options{}) || r.Matches(r.sc, 0, 5, Options{GridRes: 8}) {
		t.Error("a Range matched another scene, other frames or other tracer options")
	}
}

// TestPrivateRangeKeepsNoTracer: the Range behind NewEngine builds every
// frame's tracer for its one engine and holds none of them afterwards.
func TestPrivateRangeKeepsNoTracer(t *testing.T) {
	const frames = 6
	e, err := NewEngine(movingScene(frames), tw, th, fb.NewRect(0, 0, tw, th), 0, frames, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	for f := 0; f < frames; f++ {
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		if st := e.rng.Stats(); st.FramesBuilt != f+1 || st.FramesHeld != 0 || e.rng.geo.held != nil {
			t.Fatalf("after frame %d: %+v", f, st)
		}
	}
}

// TestRangeRetainedBytes pins what a shared Range keeps per Newton frame
// once every frame is built: the tracer (resolved objects and the scene
// grid, about 5 kB of it), the movers' voxel lists and the pair's changed
// set. Measured 6,926 B a frame at 60 frames; the pin leaves a quarter of
// headroom. A worker holds one Range, so this times the frames of a task
// — 0.4 MB for Newton's 60 — is the most sharing costs
// it between tasks.
func TestRangeRetainedBytes(t *testing.T) {
	const w, h, frames = 120, 160, 60
	sc := scenes.Newton(frames)
	before := heappin.Live(t)
	r, engines := sharedEngines(t, sc, w, h, 0, frames, []fb.Rect{fb.NewRect(0, 0, 40, 40)}, Options{Threads: 1})
	renderBlocks(t, engines, w, h, 0, frames, 1)
	after := heappin.Live(t)
	if st := r.Stats(); st.FramesHeld != frames {
		t.Fatalf("the Range holds %d tracers, want %d", st.FramesHeld, frames)
	}
	perFrame := (int64(after) - int64(before)) / frames
	t.Logf("a Newton Range retains %d bytes a frame", perFrame)
	if perFrame > 8660 {
		t.Errorf("a Newton Range retains %d bytes a frame, want <= 8660", perFrame)
	}
	runtime.KeepAlive(r)
}

// TestWorkingSetTracksHeap: Frames.WorkingSet, which the virtual NOW
// weighs against a machine's memory, is what the heap holds. A serial
// whole-frame engine over twelve Newton frames at 120x160 and its Range,
// which keeps every frame's tracer, plus the frame it renders into, must
// account for between 85 % and all of the heap they grew (1.28 of 1.41
// MB; the rest is the registration grid's unused cell table and the
// tracers' grids as Geometry.bytes undercounts them).
func TestWorkingSetTracksHeap(t *testing.T) {
	const w, h, frames = 120, 160, 12
	sc := scenes.Newton(frames)
	before := heappin.Live(t)
	r, engines := sharedEngines(t, sc, w, h, 0, frames, []fb.Rect{fb.NewRect(0, 0, w, h)}, Options{Threads: 1})
	buf := fb.New(w, h)
	for f := 0; f < frames; f++ {
		if _, err := engines[0].RenderFrame(f, buf); err != nil {
			t.Fatal(err)
		}
	}
	grew := int64(heappin.Live(t) - before)
	got := int64(r.Frames().WorkingSet(engines[0]) + len(buf.Pix))
	t.Logf("working set %d bytes, heap grew %d", got, grew)
	if got < grew*85/100 || got > grew {
		t.Errorf("working set %d bytes, heap grew %d: not between 85 %% and all of it", got, grew)
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(buf)
}
