package coherence

import (
	"math"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/trace"
)

// frameCounts is what one RenderFrame reports plus the live registration
// count after it: Rendered, Copied, DirtyNext, Registrations,
// ChangeVoxels, RegistrationCount().
type frameCounts [6]int

func countsOf(rep FrameReport, e *Engine) frameCounts {
	return frameCounts{rep.Rendered, rep.Copied, rep.DirtyNext, int(rep.Registrations), rep.ChangeVoxels, e.RegistrationCount()}
}

// Re-pinned when the registration grid moved from the sequence bounds
// (camera, lights and plane padding included: Newton 32x26x26 at voxel
// edge 0.67) onto the movers' swept bounds (Newton 32x21x6 at 0.125):
// rays register only inside the motion box and its voxels are five times
// finer, so Rendered/Copied/DirtyNext fall (less over-marking),
// Registrations and RegistrationCount fall sixteenfold and ChangeVoxels
// rises. The rays of a re-traced pixel, and every pixel, did not move.
// Threads 1 and 8 alike.
//
// Re-pinned again when shadow segments that a static opaque object blocks
// stopped registering: no mover can light them again. Registrations and
// RegistrationCount fall (by 28 % on newton, where the frame and the
// middle marbles shade the floor, and by a handful on moving), newton's
// Rendered, Copied and DirtyNext with them, because a mover crossing such
// a segment no longer dirties its pixel; ChangeVoxels and every pixel did
// not move.
var pinnedCounts = []struct {
	name string
	sc   *scene.Scene
	w, h int
	want [12]frameCounts
}{
	{"newton", scenes.Newton(12), 60, 80, [12]frameCounts{
		{4800, 0, 353, 15873, 510, 15873},
		{353, 4447, 421, 4449, 548, 15531},
		{421, 4379, 627, 5298, 796, 15514},
		{627, 4173, 360, 7777, 510, 15432},
		{360, 4440, 360, 4981, 510, 15754},
		{360, 4440, 407, 4659, 548, 15432},
		{407, 4393, 619, 5180, 796, 15514},
		{619, 4181, 353, 7723, 510, 15531},
		{353, 4447, 353, 4791, 510, 15873},
		{353, 4447, 421, 4449, 548, 15531},
		{421, 4379, 627, 5298, 796, 15514},
		{627, 4173, 0, 7777, 0, 15432},
	}},
	{"moving", movingScene(12), tw, th, [12]frameCounts{
		{2880, 0, 225, 7211, 544, 7211},
		{225, 2655, 230, 1865, 564, 7173},
		{230, 2650, 229, 2286, 564, 7274},
		{229, 2651, 226, 2381, 564, 7322},
		{226, 2654, 220, 2318, 548, 7344},
		{220, 2660, 220, 2162, 536, 7356},
		{220, 2660, 222, 2084, 548, 7344},
		{222, 2658, 225, 2112, 564, 7344},
		{225, 2655, 223, 2104, 564, 7307},
		{223, 2657, 224, 2081, 564, 7274},
		{224, 2656, 220, 2003, 544, 7204},
		{220, 2660, 0, 1848, 0, 7327},
	}},
}

// TestCountsPinned holds every count the engine reports: the virtual NOW
// charges Registrations and ChangeVoxels, so a silent move here moves
// Table 1's virtual milliseconds. Threads 8 also takes the parallel run scan and the
// multi-arena rewrite through the race detector in CI.
func TestCountsPinned(t *testing.T) {
	for _, c := range pinnedCounts {
		for _, threads := range []int{1, 8} {
			e, err := NewEngine(c.sc, c.w, c.h, fb.NewRect(0, 0, c.w, c.h), 0, len(c.want), Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			img := fb.New(c.w, c.h)
			for f, want := range c.want {
				rep, err := e.RenderFrame(f, img)
				if err != nil {
					t.Fatal(err)
				}
				if got := countsOf(rep, e); got != want {
					t.Errorf("%s threads %d frame %d: counts %v, want %v", c.name, threads, f, got, want)
				}
			}
		}
	}
}

// TestSteadyStateAllocs: on a warmed engine a frame allocates for its
// tracer (trace.New builds the frame's scene grid), for the frame pair's
// changed set (one bitset; the movers' voxel lists are carved out of the
// Range's one arena) and nothing that scales with the registrations it
// writes — the arenas and the spare buffers are reused.
func TestSteadyStateAllocs(t *testing.T) {
	const warm, runs = 20, 8
	s := movingScene(warm + 5*runs + 2)
	e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, s.Frames, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	f := 0
	frame := func() {
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		f++
	}
	for f < warm {
		frame()
	}
	// The tracer's count depends on how many voxels each object's box
	// overlaps, which moves with the movers on a grid laid over the
	// geometry, so the baseline builds the tracers of the very frames the
	// engine renders below, in the same windows (heappin.PerCall calls
	// once more to warm up).
	g := f
	_, perTracer := heappin.PerCall(t, runs, func() {
		if _, err := trace.New(s, g, trace.Options{}); err != nil {
			t.Fatal(err)
		}
		g++
	})
	_, perFrame := heappin.PerCall(t, runs, frame)
	if extra := int64(perFrame) - int64(perTracer); extra > 16 {
		t.Errorf("%d allocations per steady frame, %d of them the tracer's: %d left, want <= 16", perFrame, perTracer, extra)
	}
}

// TestSerialWrap: a collector whose pixel serial wraps mid-frame must
// keep deduplicating — same counts, same pixels as a fresh engine.
func TestSerialWrap(t *testing.T) {
	const frames = 3
	s := movingScene(frames)
	render := func(prime func(*Engine)) ([]FrameReport, []*fb.Framebuffer) {
		e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, frames, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		prime(e)
		var reps []FrameReport
		var imgs []*fb.Framebuffer
		for f := 0; f < frames; f++ {
			img := fb.New(tw, th)
			rep, err := e.RenderFrame(f, img)
			if err != nil {
				t.Fatal(err)
			}
			rep.Overhead = 0
			reps, imgs = append(reps, rep), append(imgs, img)
		}
		return reps, imgs
	}
	wantReps, wantImgs := render(func(*Engine) {})
	gotReps, gotImgs := render(func(e *Engine) {
		e.ensureCollectors(1)
		c := e.collectors[0]
		c.serial = math.MaxUint32 - 2
		// Stale state a wrap must not mistake for the new serials'.
		for v := range c.last {
			c.last[v] = uint32(v%4) + 1
		}
	})
	for f := range wantReps {
		if gotReps[f] != wantReps[f] {
			t.Errorf("frame %d: report %+v across the wrap, want %+v", f, gotReps[f], wantReps[f])
		}
		if !gotImgs[f].Equal(wantImgs[f]) {
			t.Errorf("frame %d: pixels differ across the wrap", f)
		}
	}
}
