package coherence

import (
	"testing"

	"nowrender/internal/stats"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// movingScene: a red ball slides across a checkered floor, camera
// stationary, light fixed — the canonical coherence-friendly animation.
func movingScene(frames int) *scene.Scene {
	s := scene.New("moving")
	s.Frames = frames
	s.Camera = scene.Camera{Pos: vm.V(0, 3, 10), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Background = material.RGB(0.1, 0.1, 0.2)
	floor := material.NewMaterial(material.Checker{A: material.White, B: material.RGB(0.2, 0.2, 0.2)}, material.DefaultFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Red),
		scene.KeyframeTrack{Keys: []scene.Keyframe{
			{Frame: 0, Pos: vm.V(-3, 0, 0)},
			{Frame: frames - 1, Pos: vm.V(3, 0, 0)},
		}})
	s.Add("pillar", geom.NewCylinder(vm.V(4, 0, -2), vm.V(4, 3, -2), 0.4),
		material.Matte(material.Blue), nil)
	s.AddLight("key", vm.V(6, 10, 8), material.White)
	return s
}

// staticScene: nothing moves at all.
func staticScene(frames int) *scene.Scene {
	s := scene.New("static")
	s.Frames = frames
	s.Camera = scene.Camera{Pos: vm.V(0, 2, 8), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Green), nil)
	s.AddLight("key", vm.V(4, 8, 8), material.White)
	return s
}

const tw, th = 60, 48

func TestNewEngineValidation(t *testing.T) {
	s := movingScene(5)
	full := fb.NewRect(0, 0, tw, th)
	if _, err := NewEngine(s, tw, th, full, 0, 6, Options{}); err == nil {
		t.Error("frame range beyond scene accepted")
	}
	if _, err := NewEngine(s, tw, th, full, 3, 3, Options{}); err == nil {
		t.Error("empty frame range accepted")
	}
	if _, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw+1, th), 0, 5, Options{}); err == nil {
		t.Error("region outside frame accepted")
	}
	if _, err := NewEngine(s, tw, th, fb.Rect{}, 0, 5, Options{}); err == nil {
		t.Error("empty region accepted")
	}
}

func TestNewEngineRejectsMovingCamera(t *testing.T) {
	s := movingScene(5)
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		c := scene.DefaultCamera()
		c.Pos = vm.V(float64(f), 2, 10)
		return c
	})
	if _, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 5, Options{}); err == nil {
		t.Error("moving camera accepted")
	}
}

func TestFramesMustBeConsecutive(t *testing.T) {
	s := movingScene(5)
	e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(1, img); err == nil {
		t.Error("skipping frame 0 accepted")
	}
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFrame(2, img); err == nil {
		t.Error("skipping frame 1 accepted")
	}
}

func TestFirstFrameRendersEverything(t *testing.T) {
	s := movingScene(3)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	rep, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != tw*th || rep.Copied != 0 {
		t.Errorf("first frame rendered=%d copied=%d", rep.Rendered, rep.Copied)
	}
	if rep.Rays.Total() == 0 {
		t.Error("no rays counted")
	}
}

// The paper's central correctness claim: coherence must not change the
// image. Render the whole animation both ways and compare pixels — over
// enough frames that the registration arenas are rewritten several
// times, which must not change the image either.
func TestCoherentRenderPixelIdentical(t *testing.T) {
	const frames = 30
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	var fullFrames []*fb.Framebuffer
	_, err := FullRender(s, tw, th, full, 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(s, tw, th, full, 0, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	savedRendered := 0
	frameIdx := 0
	rewrites, stored := 0, 0
	_, err = e.RenderSequence(func(f int, img *fb.Framebuffer, rep FrameReport) error {
		if !img.Equal(fullFrames[frameIdx]) {
			t.Errorf("frame %d: coherent render differs from full render in %d pixels",
				f, img.DiffCount(fullFrames[frameIdx]))
		}
		savedRendered += rep.Rendered
		frameIdx++
		n := arenaEntries(e)
		if n < stored {
			rewrites++
		}
		stored = n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewrites < 2 {
		t.Errorf("only %d arena rewrites in %d frames; the test must span several", rewrites, frames)
	}
	// And coherence must actually save work on this scene.
	if savedRendered >= frames*tw*th {
		t.Errorf("coherence saved nothing: rendered %d of %d pixels",
			savedRendered, frames*tw*th)
	}
}

func TestStaticSceneSecondFrameFree(t *testing.T) {
	s := staticScene(3)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	rep, err := e.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != 0 {
		t.Errorf("static scene re-rendered %d pixels in frame 1", rep.Rendered)
	}
	if rep.Copied != tw*th {
		t.Errorf("copied %d, want %d", rep.Copied, tw*th)
	}
	if rep.Rays.Total() != 0 {
		t.Errorf("static frame cast %d rays", rep.Rays.Total())
	}
}

// The predicted dirty set must be a superset of the actually-changed
// pixels (conservativeness; Figure 2(b) covers 2(a)).
func TestPredictedDirtySupersetOfActual(t *testing.T) {
	const frames = 5
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	var fullFrames []*fb.Framebuffer
	if _, err := FullRender(s, tw, th, full, 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	e, _ := NewEngine(s, tw, th, full, 0, frames, Options{})
	img := fb.New(tw, th)
	for f := 0; f < frames-1; f++ {
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		mask := e.DirtyMask()
		// Compare actual pixel change f -> f+1 against prediction.
		missed := 0
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				ar, ag, ab := fullFrames[f].At(x, y)
				br, bg, bb := fullFrames[f+1].At(x, y)
				changed := ar != br || ag != bg || ab != bb
				if changed && !mask[y*tw+x] {
					missed++
				}
			}
		}
		if missed > 0 {
			t.Errorf("frame %d->%d: %d changed pixels not predicted dirty", f, f+1, missed)
		}
	}
}

func TestRegionRestrictsWork(t *testing.T) {
	s := movingScene(3)
	region := fb.NewRect(10, 8, 30, 24)
	e, err := NewEngine(s, tw, th, region, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	rep, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != region.Area() {
		t.Errorf("rendered %d, want region area %d", rep.Rendered, region.Area())
	}
	// Pixels outside the region stay untouched (black).
	if r, g, b := img.At(0, 0); r != 0 || g != 0 || b != 0 {
		t.Error("pixel outside region was written")
	}
}

func TestRegionRenderMatchesFullRenderInsideRegion(t *testing.T) {
	const frames = 4
	s := movingScene(frames)
	region := fb.NewRect(15, 10, 45, 38)

	var fullFrames []*fb.Framebuffer
	if _, err := FullRender(s, tw, th, fb.NewRect(0, 0, tw, th), 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	e, _ := NewEngine(s, tw, th, region, 0, frames, Options{})
	for f := 0; f < frames; f++ {
		img := fb.New(tw, th)
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		for y := region.Y0; y < region.Y1; y++ {
			for x := region.X0; x < region.X1; x++ {
				ar, ag, ab := img.At(x, y)
				br, bg, bb := fullFrames[f].At(x, y)
				if ar != br || ag != bg || ab != bb {
					t.Fatalf("frame %d pixel (%d,%d): region render differs", f, x, y)
				}
			}
		}
	}
}

func TestMovingLightDirtiesEverything(t *testing.T) {
	s := staticScene(3)
	s.Lights[0].Track = scene.FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(f), 0, 0))
	}}
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	mask := e.DirtyMask()
	for i, d := range mask {
		if !d {
			t.Fatalf("pixel %d not dirty despite moving light", i)
		}
	}
}

func TestBlockGranularityDilates(t *testing.T) {
	const frames = 3
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	pixel, _ := NewEngine(s, tw, th, full, 0, frames, Options{})
	block, _ := NewEngine(s, tw, th, full, 0, frames, Options{BlockGranularity: 8})
	img := fb.New(tw, th)
	if _, err := pixel.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	img2 := fb.New(tw, th)
	if _, err := block.RenderFrame(0, img2); err != nil {
		t.Fatal(err)
	}
	pm, bm := pixel.DirtyMask(), block.DirtyMask()
	pCount, bCount := 0, 0
	for i := range pm {
		if pm[i] {
			pCount++
			if !bm[i] {
				t.Fatal("block mask not a superset of pixel mask")
			}
		}
		if bm[i] {
			bCount++
		}
	}
	if bCount <= pCount {
		t.Errorf("block granularity did not dilate: pixel=%d block=%d", pCount, bCount)
	}
	// Block mode still renders correct images (it only re-renders more).
	repPixel, err := pixel.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	repBlock, err := block.RenderFrame(1, img2)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(img2) {
		t.Error("block-granular render differs from pixel-granular")
	}
	if repBlock.Rendered < repPixel.Rendered {
		t.Error("block mode rendered fewer pixels than pixel mode")
	}
}

// arenaEntries is the storage the engine holds for registrations, live
// and dead, headers included, in int32s.
func arenaEntries(e *Engine) int {
	total := 0
	for _, c := range e.collectors {
		total += len(c.arena)
	}
	return total
}

// liveRecords is what the live records take: the live registrations and a
// two-entry header for every pixel that has any.
func liveRecords(e *Engine) int {
	n := e.RegistrationCount()
	for _, run := range e.runs {
		if run.off > 0 {
			n += 2
		}
	}
	return n
}

// checkRuns fails unless the pixels' runs are exactly the live
// registrations — they sum to RegistrationCount, each follows its own
// header and names each voxel once — and every arena parses into records
// whose live ones are exactly the runs and whose dead ones add up to the
// collector's dead count.
func checkRuns(t *testing.T, e *Engine) {
	t.Helper()
	sum := 0
	seen := make(map[int32]bool)
	for p, run := range e.runs {
		sum += len(e.voxels(run))
		if run.off > 0 && e.collectors[run.slot].arena[run.off-2] != int32(p) {
			t.Fatalf("pixel %d: run %+v after the header of pixel %d", p, run, e.collectors[run.slot].arena[run.off-2])
		}
		clear(seen)
		for _, v := range e.voxels(run) {
			if seen[v] {
				t.Fatalf("pixel %d registered twice on voxel %d", p, v)
			}
			seen[v] = true
		}
	}
	if sum != e.RegistrationCount() {
		t.Fatalf("runs hold %d registrations, RegistrationCount says %d", sum, e.RegistrationCount())
	}
	for _, c := range e.collectors {
		r, dead := 0, 0
		for r < len(c.arena) {
			p, n := c.arena[r], int(c.arena[r+1])
			if p < 0 {
				dead += 2 + n
			} else if run := e.runs[p]; run.slot != c.slot || int(run.off) != r+2 {
				t.Fatalf("collector %d: live record of pixel %d at %d, but its run is %+v", c.slot, p, r, run)
			}
			r += 2 + n
		}
		if r != len(c.arena) || dead != c.dead {
			t.Fatalf("collector %d: records end at %d of %d, %d dead entries, counted %d", c.slot, r, len(c.arena), dead, c.dead)
		}
	}
}

func TestRegistrationAccounting(t *testing.T) {
	s := movingScene(4)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 4, Options{})
	img := fb.New(tw, th)
	rep0, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is superseded yet: storage holds only live records, and the
	// report and the live count agree.
	n0 := e.RegistrationCount()
	if n0 == 0 || uint64(n0) != rep0.Registrations || arenaEntries(e) != liveRecords(e) {
		t.Fatalf("after the first frame: live %d, reported %d, stored %d", n0, rep0.Registrations, arenaEntries(e))
	}
	checkRuns(t, e)
	rep1, err := e.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	// Re-traced pixels swap their old registrations for new ones.
	n1 := e.RegistrationCount()
	if n1 == 0 || n1 >= n0+int(rep1.Registrations) {
		t.Errorf("live %d after re-tracing %d pixels (+%d registrations) on top of %d", n1, rep1.Rendered, rep1.Registrations, n0)
	}
	checkRuns(t, e)
}

func TestDisableShadowRegistrationIsCheaperButRegistersLess(t *testing.T) {
	s := movingScene(3)
	full := fb.NewRect(0, 0, tw, th)
	withShadow, _ := NewEngine(s, tw, th, full, 0, 3, Options{})
	without, _ := NewEngine(s, tw, th, full, 0, 3, Options{DisableShadowRegistration: true})
	img := fb.New(tw, th)
	if _, err := withShadow.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if _, err := without.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if without.RegistrationCount() >= withShadow.RegistrationCount() {
		t.Errorf("shadow registration off (%d) should register fewer than on (%d)",
			without.RegistrationCount(), withShadow.RegistrationCount())
	}
}

func TestRenderSequenceAggregates(t *testing.T) {
	s := movingScene(4)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 4, Options{})
	emitted := 0
	run, err := e.RenderSequence(func(f int, img *fb.Framebuffer, rep FrameReport) error {
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 4 || len(run.Frames) != 4 {
		t.Errorf("emitted %d frames, stats have %d", emitted, len(run.Frames))
	}
	total := run.TotalRays()
	if total.Total() == 0 {
		t.Error("no rays in run stats")
	}
	first, _ := run.FirstFrame()
	if first.Rendered != tw*th {
		t.Error("first frame stats wrong")
	}
}

// Coherent rendering must stay pixel-identical with adaptive
// antialiasing enabled (the AA samples are deterministic per pixel).
func TestCoherentRenderPixelIdenticalWithAA(t *testing.T) {
	const frames = 4
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)
	opts := Options{AAThreshold: 0.15, AASamples: 6}

	// Reference: per-frame full render with the same AA settings.
	var want []*fb.Framebuffer
	for f := 0; f < frames; f++ {
		ft, err := trace.New(s, f, trace.Options{AAThreshold: 0.15, AASamples: 6})
		if err != nil {
			t.Fatal(err)
		}
		img := fb.New(tw, th)
		ft.RenderFull(img)
		want = append(want, img)
	}

	e, err := NewEngine(s, tw, th, full, 0, frames, opts)
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for f := 0; f < frames; f++ {
		img := fb.New(tw, th)
		rep, err := e.RenderFrame(f, img)
		if err != nil {
			t.Fatal(err)
		}
		saved += rep.Copied
		if !img.Equal(want[f]) {
			t.Errorf("frame %d: AA coherent render differs in %d pixels",
				f, img.DiffCount(want[f]))
		}
	}
	if saved == 0 {
		t.Error("coherence saved nothing with AA on")
	}
}

// Long animations must not accumulate superseded registrations: after
// every frame the arenas hold at most three times the live records,
// whatever the thread count, and the runs stay consistent across the
// compactions that keep it so.
func TestRegistrationMemoryBounded(t *testing.T) {
	const frames = 64
	s := movingScene(frames)
	for _, threads := range []int{1, 8} {
		e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, frames, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		img := fb.New(tw, th)
		rewrites, prev := 0, 0
		for f := 0; f < frames; f++ {
			if _, err := e.RenderFrame(f, img); err != nil {
				t.Fatal(err)
			}
			stored := arenaEntries(e)
			if limit := 3 * liveRecords(e); stored > limit {
				t.Fatalf("threads %d frame %d: %d entries stored, limit %d", threads, f, stored, limit)
			}
			if stored < prev {
				rewrites++
			}
			prev = stored
			checkRuns(t, e)
		}
		if rewrites == 0 {
			t.Errorf("threads %d: arenas never rewritten in %d frames", threads, frames)
		}
	}
}
