package farm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/material"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/trace"
)

// TestWorkerBuildsEachFrameOnce: frame division gives one worker twelve
// 40x40 blocks of the same 60 Newton frames. Through the real worker loop
// and the wire, its one Range built 60 tracers and voxelised each mover
// at most once per frame for the whole job — not once per block — and the
// frames are the plain render's.
func TestWorkerBuildsEachFrameOnce(t *testing.T) {
	const w, h, frames = 120, 160, 60
	sc := scenes.Newton(frames)
	var want []*fb.Framebuffer
	if _, err := coherence.FullRender(sc, w, h, fb.NewRect(0, 0, w, h), 0, frames, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			want = append(want, img)
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	ranges := new(rangeHolder)
	res := oneWorker(t, Config{
		Scene: sc, W: w, H: h, Coherence: true, Workers: 1, Threads: 1,
		Scheme:    partition.Scheme{BlockW: 40, BlockH: 40, Adaptive: true},
		WireDelta: true, WireSpanCodec: true,
	}, ranges)
	assertFramesEqual(t, "one worker, twelve blocks", res.Frames, want)
	if res.TasksExecuted != 12 {
		t.Fatalf("%d tasks executed, want 12", res.TasksExecuted)
	}
	st := ranges.cur.Stats()
	if st.Engines != 12 {
		t.Errorf("the worker's Range served %d of the twelve tasks over the same frames", st.Engines)
	}
	if st.FramesBuilt != frames || st.Voxelisations == 0 || st.Voxelisations > frames*st.Movers || st.ChangeSets != frames-1 {
		t.Errorf("the job built %+v, want %d tracers, at most %d voxelisations for each of %d movers, %d changed sets",
			st, frames, frames, st.Movers, frames-1)
	}
}

// oneWorker runs cfg's master over one real worker loop keeping ranges,
// through a hub and the wire.
func oneWorker(t *testing.T, cfg Config, ranges *rangeHolder) *Result {
	t.Helper()
	hub := msg.NewHub()
	masterEnd, workerEnd := msg.Pipe(64)
	if err := hub.Attach("worker00", masterEnd); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		err := runWorkerLoop(context.Background(), "worker00", workerEnd, cfg.Scene, WorkerOptions{}, ranges)
		workerEnd.Close()
		exited <- err
	}()
	res, err := RunMaster(cfg, hub)
	hub.Close()
	// The master may finish and close the link while the worker still
	// sends its last TagTaskDone: RunWorkerWithOptions calls that a clean
	// shutdown, and so does this.
	if werr := <-exited; werr != nil && !errors.Is(werr, msg.ErrClosed) {
		t.Fatalf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlainWorkerBuildsEachFrameOnce: frame division gives one worker
// four blocks of the same six meshgallery frames, whose camera moves
// every frame, so the tasks are plain. Through the real worker loop its
// holder builds six object-space clusters — or on the replicated path six
// tracers — for the whole job, not one per block; the frames are the
// plain render's. The forwards the master totals are exactly those of the
// six frames rendered whole, each counted toward the task that routed it,
// with the clusters' resident sizes. A task on another scene replaces the
// held frames.
func TestPlainWorkerBuildsEachFrameOnce(t *testing.T) {
	const w, h, frames = 80, 60, 6
	sc := scenes.MeshGallery(frames)
	var want []*fb.Framebuffer
	if _, err := coherence.FullRender(sc, w, h, fb.NewRect(0, 0, w, h), 0, frames, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			want = append(want, img)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	var whole objspace.Stats
	for f := 0; f < frames; f++ {
		cl, err := objspace.Build(sc, f, trace.Options{}, objspace.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		cl.WorkersFor(&whole)(nil).RenderFull(fb.New(w, h))
	}
	for _, shards := range []int{0, 4} {
		ranges := new(rangeHolder)
		res := oneWorker(t, Config{
			Scene: sc, W: w, H: h, Workers: 1, Threads: 1, ObjSpaceShards: shards,
			Scheme: partition.Scheme{BlockW: 40, BlockH: 30, Adaptive: true},
		}, ranges)
		assertFramesEqual(t, fmt.Sprintf("%d shards", shards), res.Frames, want)
		if res.TasksExecuted != 4 {
			t.Fatalf("%d shards: %d tasks executed, want 4", shards, res.TasksExecuted)
		}
		if asked, built, kept := ranges.geo.Stats(); asked != 4*frames || built != frames || kept != frames || ranges.cur != nil {
			t.Errorf("%d shards: four blocks of %d frames asked the held frames %d times, built %d frames' geometry and kept %d (Range %v)",
				shards, frames, asked, built, kept, ranges.cur)
		}
		if shards == 0 {
			if res.ObjSpace.Enabled() {
				t.Errorf("replicated job reports object-space traffic: %s", res.ObjSpace)
			}
			continue
		}
		got, ref := res.ObjSpace, whole.Snapshot()
		if ref.RaysForwarded == 0 || ref.PeakResidentBytes == 0 {
			t.Fatalf("the whole frames forward nothing: %+v", ref)
		}
		if got.RaysForwarded != ref.RaysForwarded || got.ForwardBytes != ref.ForwardBytes ||
			got.PeakResidentBytes != ref.PeakResidentBytes || fmt.Sprint(got.PerShard) != fmt.Sprint(ref.PerShard) {
			t.Errorf("the job's tasks total %+v, the whole frames %+v", got, ref)
		}

		held := ranges.geo
		other := scenes.MeshGallery(frames)
		task := partition.Task{Region: fb.NewRect(0, 0, 40, 30), StartFrame: 0, EndFrame: frames}
		if _, err := newFrameStep(other, taskMsg{Task: task, W: w, H: h, Samples: 1, OSShards: shards}, ranges, nil, nil); err != nil {
			t.Fatal(err)
		}
		if ranges.geo == held || !ranges.geo.Covers(other, 0, frames, trace.Options{SamplesPerPixel: 1}, shards) {
			t.Error("a task on another scene was served the first scene's frames")
		}
	}
}

// stepTask renders a hand-made coherent task through the frame step, as
// the worker loop would, and copies its region into frames.
func stepTask(t *testing.T, sc *scene.Scene, ranges *rangeHolder, task partition.Task, frames []*fb.Framebuffer) {
	t.Helper()
	step, err := newFrameStep(sc, taskMsg{Task: task, W: fw, H: fh, Coherence: true, Samples: 1, Threads: 1}, ranges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := task.StartFrame; f < task.EndFrame; f++ {
		if _, _, err := step.render(f); err != nil {
			t.Fatal(err)
		}
		frames[f].CopyRect(step.buf, task.Region)
	}
}

// TestRangeReplacedOnOtherFrames: a task over other frames than the last
// one's — what a steal leaves both the victim's successor and the thief
// with — replaces the worker's Range, a task over the same frames reuses
// it, and either way the frames are the goldens'.
func TestRangeReplacedOnOtherFrames(t *testing.T) {
	sc := farmScene(goldenFrames)
	blocks := fb.NewRect(0, 0, fw, fh).Blocks(20, 16)
	frames := make([]*fb.Framebuffer, goldenFrames)
	for i := range frames {
		frames[i] = fb.New(fw, fh)
	}
	ranges := new(rangeHolder)
	var held []*coherence.Range
	for _, task := range []partition.Task{
		{ID: 0, Region: blocks[0], StartFrame: 0, EndFrame: goldenFrames},
		{ID: 1, Region: blocks[1], StartFrame: 0, EndFrame: 3}, // truncated by a steal
		{ID: 2, Region: blocks[1], StartFrame: 3, EndFrame: goldenFrames},
		{ID: 3, Region: blocks[2], StartFrame: 0, EndFrame: goldenFrames},
		{ID: 4, Region: blocks[3], StartFrame: 0, EndFrame: goldenFrames},
	} {
		stepTask(t, sc, ranges, task, frames)
		held = append(held, ranges.cur)
	}
	if held[3] != held[4] || held[0] == held[1] || held[1] == held[2] || held[2] == held[3] {
		t.Error("only the last two tasks share their frames, and only they may share a Range")
	}
	want := readGolden(t)
	for f, h := range hashFrames(frames) {
		if h != want[f] {
			t.Errorf("frame %d hash mismatch", f)
		}
	}
}

// TestRangeNotServedAcrossScenes: a holder that ran a task on one scene
// builds a new Range for the same task on another *scene.Scene — even one
// with the same frames and options — so the second job never sees the
// first scene's tracers.
func TestRangeNotServedAcrossScenes(t *testing.T) {
	first := farmScene(goldenFrames)
	second := farmScene(goldenFrames)
	second.Objects[1].Mat = material.Matte(material.Red)
	full := fb.NewRect(0, 0, fw, fh)
	task := partition.Task{ID: 0, Region: full, StartFrame: 0, EndFrame: goldenFrames}
	ranges := new(rangeHolder)
	render := func(sc *scene.Scene) []*fb.Framebuffer {
		frames := make([]*fb.Framebuffer, goldenFrames)
		for i := range frames {
			frames[i] = fb.New(fw, fh)
		}
		stepTask(t, sc, ranges, task, frames)
		return frames
	}
	assertFramesEqual(t, "first scene", render(first), referenceFrames(t, first))
	r := ranges.cur
	got := render(second)
	if ranges.cur == r {
		t.Fatal("the first scene's Range was kept for the second")
	}
	r = ranges.cur
	assertFramesEqual(t, "second scene", got, referenceFrames(t, second))
	if got[0].Equal(referenceFrames(t, first)[0]) {
		t.Fatal("the two scenes render alike; the case tests nothing")
	}
	// A plain task builds no engine and leaves the held Range alone.
	if _, err := newFrameStep(second, taskMsg{Task: task, W: fw, H: fh, Samples: 1}, ranges, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ranges.cur != r {
		t.Errorf("a plain task replaced the Range")
	}
}
