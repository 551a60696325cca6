package coherence

import (
	"math"
	"testing"

	"nowrender/internal/fb"
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

// Captured from the voxel-major engine this store replaced (PR 13,
// commit 4973cd8), Threads 1 and 8 alike.
var pinnedCounts = []struct {
	name string
	sc   *scene.Scene
	w, h int
	want [12]frameCounts
}{
	{"newton", scenes.Newton(12), 60, 80, [12]frameCounts{
		{4800, 0, 1138, 310340, 23, 310340},
		{1138, 3662, 1269, 106821, 28, 309119},
		{1269, 3531, 1704, 116988, 41, 309126},
		{1704, 3096, 1180, 152216, 25, 309074},
		{1180, 3620, 1180, 104892, 25, 310224},
		{1180, 3620, 1198, 103742, 30, 309074},
		{1198, 3602, 1688, 108654, 43, 309126},
		{1688, 3112, 1138, 151499, 23, 309119},
		{1138, 3662, 1138, 108042, 23, 310340},
		{1138, 3662, 1269, 106821, 28, 309119},
		{1269, 3531, 1704, 116988, 41, 309126},
		{1704, 3096, 0, 152216, 0, 309074},
	}},
	{"moving", movingScene(12), tw, th, [12]frameCounts{
		{2880, 0, 340, 149481, 62, 149481},
		{340, 2540, 346, 23266, 63, 149504},
		{346, 2534, 323, 23110, 62, 149777},
		{323, 2557, 325, 21045, 62, 149914},
		{325, 2555, 334, 20419, 65, 149992},
		{334, 2546, 325, 20487, 63, 150038},
		{325, 2555, 341, 19212, 64, 149916},
		{341, 2539, 335, 19953, 62, 149986},
		{335, 2545, 308, 19313, 58, 149999},
		{308, 2572, 341, 17168, 62, 149947},
		{341, 2539, 350, 19365, 65, 150087},
		{350, 2530, 0, 20446, 0, 150236},
	}},
}

// TestCountsPinned holds every count the engine reports to the values of
// the engine before it: the virtual NOW charges Registrations and
// ChangeVoxels, so a silent move here moves Table 1's virtual
// milliseconds. Threads 8 also takes the parallel run scan and the
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
// tracer (trace.New builds the frame's scene grid) and nothing that
// scales with the registrations it writes — the arenas, the spare
// buffers and change detection's scratch are all reused.
func TestSteadyStateAllocs(t *testing.T) {
	const warm, runs = 20, 40
	s := movingScene(warm + runs + 2)
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
	perTracer := testing.AllocsPerRun(runs, func() {
		if _, err := trace.New(s, warm, trace.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perFrame := testing.AllocsPerRun(runs, frame)
	if extra := perFrame - perTracer; extra > 16 {
		t.Errorf("%.0f allocations per steady frame, %.0f of them the tracer's: %.0f left, want <= 16", perFrame, perTracer, extra)
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
