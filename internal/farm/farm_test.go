package farm

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/material"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/stats"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
	"nowrender/internal/wire"
)

const fw, fh = 40, 32

// farmScene is a small animation with a moving ball, enough secondary
// rays to be interesting, and a stationary camera.
func farmScene(frames int) *scene.Scene {
	s := scene.New("farm-test")
	s.Frames = frames
	s.Camera = scene.Camera{Pos: vm.V(0, 2, 9), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Background = material.RGB(0.1, 0.1, 0.25)
	floor := material.NewMaterial(material.Checker{A: material.White, B: material.RGB(0.15, 0.15, 0.15)}, material.DefaultFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	chrome := material.NewMaterial(material.Solid{C: material.RGB(0.9, 0.9, 0.95)}, material.ChromeFinish())
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), chrome,
		scene.KeyframeTrack{Keys: []scene.Keyframe{
			{Frame: 0, Pos: vm.V(-2.5, 0, 0)},
			{Frame: frames - 1, Pos: vm.V(2.5, 0, 0)},
		}})
	s.AddLight("key", vm.V(5, 9, 7), material.White)
	return s
}

// referenceFrames renders the animation frame by frame with the plain
// tracer — the ground truth all farm modes must match exactly.
func referenceFrames(t *testing.T, sc *scene.Scene) []*fb.Framebuffer {
	t.Helper()
	var out []*fb.Framebuffer
	_, err := coherence.FullRender(sc, fw, fh, fb.NewRect(0, 0, fw, fh), 0, sc.Frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			out = append(out, img.Clone())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// steadyVersusMessage renders every w x h frame-division block of sc
// (bw x bh) through the frame step and returns what the virtual NOW
// charges, on average, for a block's steady (non-first) coherent frame
// on a speed-1 machine and for the message carrying its result: the
// master's handling plus the bus. A test whose blocks' steady frames cost
// less than their messages measures the bus, not the schedule.
func steadyVersusMessage(t *testing.T, sc *scene.Scene, w, h, bw, bh int) (steady, message time.Duration) {
	t.Helper()
	cost := cluster.DefaultCostModel()
	bus, err := cluster.NewVirtualNOW(cluster.Uniform(1, 1, 0)) // one machine: a transfer never waits
	if err != nil {
		t.Fatal(err)
	}
	tasks := partition.FrameDivision{BlockW: bw, BlockH: bh}.InitialTasks(w, h, 0, sc.Frames, 1)
	for _, task := range tasks {
		tm := taskMsg{Task: task, W: w, H: h, Coherence: true, Samples: 1, Threads: 1}
		step, err := newFrameStep(sc, tm, &rangeHolder{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < sc.Frames; f++ {
			fd, work, err := step.render(f)
			if err != nil {
				t.Fatal(err)
			}
			data := step.encode(&fd, f == 0)
			if f > 0 {
				steady += time.Duration(cost.Seconds(work) * float64(time.Second))
				sent := bus.Time(0)
				message += time.Duration(cost.SecPerMessage*float64(time.Second)) + bus.Communicate(0, len(data)) - sent
			}
		}
	}
	n := time.Duration(len(tasks) * (sc.Frames - 1))
	return steady / n, message / n
}

// aaReferenceFrames is referenceFrames with the tracer's adaptive
// antialiasing on: the ground truth for runs that set
// Config.AAThreshold. It also checks the option is not vacuous on
// this scene.
func aaReferenceFrames(t *testing.T, sc *scene.Scene, threshold float64) []*fb.Framebuffer {
	t.Helper()
	plain := referenceFrames(t, sc)
	out := make([]*fb.Framebuffer, sc.Frames)
	differs := false
	for f := range out {
		ft, err := trace.New(sc, f, trace.Options{SamplesPerPixel: 1, AAThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		out[f] = fb.New(fw, fh)
		ft.RenderRegion(out[f], fb.NewRect(0, 0, fw, fh))
		differs = differs || !out[f].Equal(plain[f])
	}
	if !differs {
		t.Fatalf("antialiasing at threshold %v changes no pixel of the test scene", threshold)
	}
	return out
}

func assertFramesEqual(t *testing.T, label string, got []*fb.Framebuffer, want []*fb.Framebuffer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for f := range got {
		if !got[f].Equal(want[f]) {
			t.Errorf("%s: frame %d differs in %d pixels", label, f, got[f].DiffCount(want[f]))
		}
	}
}

func TestVirtualSchemesProduceIdenticalImages(t *testing.T) {
	sc := farmScene(6)
	want := referenceFrames(t, sc)
	schemes := []partition.Scheme{
		partition.SequenceDivision{Adaptive: true},
		partition.SequenceDivision{Adaptive: false},
		partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true},
		partition.HybridDivision{BlockW: 20, BlockH: 16, SubseqLen: 3},
	}
	wantAA := aaReferenceFrames(t, sc, 0.1)
	for _, coh := range []bool{false, true} {
		for _, sch := range schemes {
			res, err := RenderVirtual(Config{
				Scene: sc, W: fw, H: fh, Scheme: sch, Coherence: coh,
			})
			if err != nil {
				t.Fatalf("%s coherence=%v: %v", sch.Name(), coh, err)
			}
			assertFramesEqual(t, sch.Name(), res.Frames, want)
			if res.Makespan <= 0 {
				t.Errorf("%s: zero makespan", sch.Name())
			}
		}
		// Render options travel in the task message, so they reach the
		// pixels with coherence on and off alike.
		res, err := RenderVirtual(Config{
			Scene: sc, W: fw, H: fh, Scheme: schemes[2], Coherence: coh,
			AAThreshold: 0.1,
		})
		if err != nil {
			t.Fatalf("antialiased coherence=%v: %v", coh, err)
		}
		assertFramesEqual(t, fmt.Sprintf("antialiased coherence=%v", coh), res.Frames, wantAA)
	}
}

// TestVirtualDeterminism: the virtual NOW is a pure function of its
// Config. Twenty runs of the configuration with the most scheduling in it
// — adaptive frame division with coherence on the 2:1:1 testbed, where
// equal-remaining victims and simultaneous arrivals must break the same
// way every time — agree on every number the run reports. Eight frames of
// 16x16 blocks (twenty of them) at twice the other tests' size: the
// smallest size, in quarter steps of 40x32, at which a block's steady
// frame costs a speed-1 machine more than its message costs the master
// and the bus (7.8 against 7.6 ms; 7.1 against 7.5 at 60x48). Below it
// the messages, not the steal rule, set the schedule.
func TestVirtualDeterminism(t *testing.T) {
	const w, h = 2 * fw, 2 * fh
	sc := farmScene(8)
	if steady, message := steadyVersusMessage(t, sc, w, h, 16, 16); steady <= message {
		t.Fatalf("a steady block frame costs %v, its message %v: size the test up", steady, message)
	}
	run := func() *Result {
		res, err := RenderVirtual(Config{
			Scene: sc, W: w, H: h, Machines: cluster.PaperTestbed(),
			Scheme: partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true}, Coherence: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Subdivisions == 0 {
		t.Error("configuration never subdivides; the steal path is not exercised")
	}
	for i := 1; i < 20; i++ {
		b := run()
		if a.Makespan != b.Makespan {
			t.Errorf("run %d: makespans differ: %v vs %v", i, a.Makespan, b.Makespan)
		}
		if a.TasksExecuted != b.TasksExecuted || a.Subdivisions != b.Subdivisions {
			t.Errorf("run %d: task accounting differs: %d/%d tasks, %d/%d subdivisions",
				i, a.TasksExecuted, b.TasksExecuted, a.Subdivisions, b.Subdivisions)
		}
		if a.BytesTransferred != b.BytesTransferred {
			t.Errorf("run %d: traffic differs: %d vs %d bytes", i, a.BytesTransferred, b.BytesTransferred)
		}
		if !reflect.DeepEqual(a.Workers, b.Workers) {
			t.Errorf("run %d: worker stats differ:\n%+v\n%+v", i, a.Workers, b.Workers)
		}
		if a.Run.TotalRays() != b.Run.TotalRays() {
			t.Errorf("run %d: ray counts differ", i)
		}
	}
}

// TestStealWeighsColdStart: a stolen frame range starts a new coherence
// engine with a full trace. Where that costs more than the frames the
// steal takes off the victim, the master must leave the victim alone;
// without coherence every frame costs the same and it steals as ever.
// Eight frames: over five, the last blocks go out so late that a thief
// asks before the victim's first results are in, and with no sample to
// weigh the master steals.
func TestStealWeighsColdStart(t *testing.T) {
	sc := farmScene(8)
	want := referenceFrames(t, sc)
	for _, coh := range []bool{false, true} {
		res, err := RenderVirtual(Config{
			Scene: sc, W: fw, H: fh, Machines: cluster.PaperTestbed(),
			Scheme: partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true}, Coherence: coh,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertFramesEqual(t, fmt.Sprintf("coherence=%v", coh), res.Frames, want)
		if stole := res.Subdivisions > 0; stole == coh {
			t.Errorf("coherence=%v: %d subdivisions", coh, res.Subdivisions)
		}
	}
}

func TestVirtualSpeedupShape(t *testing.T) {
	// Twelve frames at 60x48: the smallest size, in quarter steps of
	// 40x32, at which a quarter-frame block's steady frame costs the
	// testbed's fast machine more than its message costs the master and
	// the bus (10.0 against 8.7 ms; 6.8 against 8.2 at 50x40). Below it
	// the messages, not the techniques under test, decide whether four
	// blocks on three machines beat one machine.
	const w, h = 3 * fw / 2, 3 * fh / 2
	sc := farmScene(12)
	fast := cluster.PaperTestbed()[0]
	frameDiv := partition.FrameDivision{BlockW: w / 2, BlockH: h / 2, Adaptive: true}
	if steady, message := steadyVersusMessage(t, sc, w, h, w/2, h/2); steady/time.Duration(fast.Speed) <= message {
		t.Fatalf("a steady block frame costs the fast machine %v, its message %v: size the test up",
			steady/time.Duration(fast.Speed), message)
	}

	one := []cluster.Machine{fast} // the single-processor runs: one machine, one task
	single, err := RenderVirtual(Config{Scene: sc, W: w, H: h, Machines: one, Scheme: partition.SequenceDivision{}})
	if err != nil {
		t.Fatal(err)
	}
	singleFC, err := RenderVirtual(Config{Scene: sc, W: w, H: h, Coherence: true, Machines: one, Scheme: partition.SequenceDivision{}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RenderVirtual(Config{Scene: sc, W: w, H: h, Scheme: frameDiv})
	if err != nil {
		t.Fatal(err)
	}
	distFC, err := RenderVirtual(Config{Scene: sc, W: w, H: h, Coherence: true, Scheme: frameDiv})
	if err != nil {
		t.Fatal(err)
	}

	// Coherence alone speeds up a moving-ball scene.
	if sFC := singleFC.Speedup(single); sFC <= 1.2 {
		t.Errorf("coherence speedup = %v, want > 1.2", sFC)
	}
	// Distribution alone approaches the aggregate/fastest speed ratio
	// (4.0/2.0 = 2); comms keep it below the ideal.
	if sD := dist.Speedup(single); sD <= 1.2 || sD > 2.05 {
		t.Errorf("distribution speedup = %v, want in (1.2, 2.05]", sD)
	}
	// Combined beats both individuals (multiplicative effect, §4).
	if distFC.Makespan >= singleFC.Makespan || distFC.Makespan >= dist.Makespan {
		t.Errorf("combined (%v) not faster than FC-only (%v) and dist-only (%v)",
			distFC.Makespan, singleFC.Makespan, dist.Makespan)
	}
}

func TestVirtualAdaptiveSubdivisionHappens(t *testing.T) {
	sc := farmScene(12)
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		Scheme: partition.SequenceDivision{Adaptive: true},
		// Strong heterogeneity forces the fast machine to finish early
		// and steal.
		Machines: []cluster.Machine{
			{Name: "fast", Speed: 8, MemoryMB: 64},
			{Name: "slow", Speed: 1, MemoryMB: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subdivisions == 0 {
		t.Error("no adaptive subdivision despite 8x speed imbalance")
	}
	// The fast machine must have done more pixels.
	var fast, slow int
	for _, w := range res.Workers {
		if w.Worker == "fast" {
			fast = w.PixelsDone
		} else {
			slow = w.PixelsDone
		}
	}
	if fast <= slow {
		t.Errorf("fast machine did %d pixels, slow %d", fast, slow)
	}
}

// TestVirtualStaticSequenceNoSubdivision: whether a run may split a
// straggler's frames is the scheme's decision on every driver — static
// sequence division and hybrid division say no, so neither the virtual
// NOW nor the wall-clock master ever sends a truncate for them, however
// early a worker runs dry.
func TestVirtualStaticSequenceNoSubdivision(t *testing.T) {
	sc := farmScene(goldenFrames)
	want := readGolden(t)
	drivers := []struct {
		name   string
		render func(Config) (*Result, error)
	}{{"virtual", RenderVirtual}, {"local", RenderLocal}}
	schemes := []partition.Scheme{
		partition.SequenceDivision{Adaptive: false},
		partition.HybridDivision{BlockW: 20, BlockH: 16, SubseqLen: 3},
	}
	for _, d := range drivers {
		for _, sch := range schemes {
			label := d.name + "/" + sch.Name()
			// Two workers of very different speed (virtual) or simply two
			// workers racing (local): one of them finishes first and asks.
			res, err := d.render(Config{
				Scene: sc, W: fw, H: fh, Scheme: sch, Workers: 2,
				Machines: []cluster.Machine{
					{Name: "fast", Speed: 8, MemoryMB: 64},
					{Name: "slow", Speed: 1, MemoryMB: 64},
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Subdivisions != 0 {
				t.Errorf("%s: subdivided %d times", label, res.Subdivisions)
			}
			for i, h := range hashFrames(res.Frames) {
				if h != want[i] {
					t.Errorf("%s: frame %d hash mismatch", label, i)
				}
			}
		}
	}
}

func TestVirtualEmitOrder(t *testing.T) {
	sc := farmScene(5)
	var order []int
	_, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh,
		Scheme: partition.FrameDivision{BlockW: 16, BlockH: 16},
		Emit: func(f int, img *fb.Framebuffer) error {
			order = append(order, f)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("emitted %d frames", len(order))
	}
	for i, f := range order {
		if f != i {
			t.Errorf("emit order %v", order)
			break
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RenderVirtual(Config{}); err == nil {
		t.Error("nil scene accepted")
	}
	sc := farmScene(2)
	if _, err := RenderVirtual(Config{Scene: sc}); err == nil {
		t.Error("zero resolution accepted")
	}
}

func TestRenderLocalMatchesReference(t *testing.T) {
	sc := farmScene(6)
	want := referenceFrames(t, sc)
	wantAA := aaReferenceFrames(t, sc, 0.1)
	for _, coh := range []bool{false, true} {
		aa, err := RenderLocal(Config{
			Scene: sc, W: fw, H: fh, Coherence: coh, Workers: 3,
			Scheme:      partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true},
			AAThreshold: 0.1,
		})
		if err != nil {
			t.Fatalf("antialiased coherence=%v: %v", coh, err)
		}
		assertFramesEqual(t, fmt.Sprintf("local antialiased coherence=%v", coh), aa.Frames, wantAA)

		res, err := RenderLocal(Config{
			Scene: sc, W: fw, H: fh, Coherence: coh, Workers: 3,
			Scheme: partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true},
		})
		if err != nil {
			t.Fatalf("coherence=%v: %v", coh, err)
		}
		assertFramesEqual(t, "local", res.Frames, want)
		if res.Makespan <= 0 {
			t.Error("zero wall makespan")
		}
		// All workers participated in stats.
		if len(res.Workers) != 3 {
			t.Errorf("%d worker stats", len(res.Workers))
		}
	}
}

func TestRenderLocalSequenceDivisionWithTruncation(t *testing.T) {
	// Sequence division with 2 workers and many frames: the queue holds 2
	// tasks, so any imbalance triggers the truncation protocol.
	sc := farmScene(10)
	want := referenceFrames(t, sc)
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 2,
		Scheme: partition.SequenceDivision{Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "local-seq", res.Frames, want)
}

func TestRenderLocalSingleWorker(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 1, Coherence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "local-1", res.Frames, want)
}

func TestProtocolRoundTrips(t *testing.T) {
	tm := taskMsg{
		Task: partition.Task{ID: 3, Region: fb.NewRect(1, 2, 33, 44), StartFrame: 5, EndFrame: 9},
		W:    240, H: 320, Coherence: true, Samples: 2, AAThreshold: 0.25,
	}
	got, err := decodeTask(encodeTask(tm))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tm) {
		t.Errorf("task round trip: %+v != %+v", got, tm)
	}

	fd := frameDoneMsg{
		TaskID: 3, Frame: 7, Region: fb.NewRect(0, 0, 2, 2),
		Pix:      []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Rendered: 3, Copied: 1, Regs: 99, ElapsedNs: 123456,
	}
	fd.Rays.ByKind[0] = 11
	fd.Rays.ByKind[3] = 44
	gotFD, err := wire.DecodeFrameDone(wire.EncodeFrameDone(fd))
	if err != nil {
		t.Fatal(err)
	}
	if gotFD.TaskID != fd.TaskID || gotFD.Frame != fd.Frame || gotFD.Region != fd.Region ||
		string(gotFD.Pix) != string(fd.Pix) || gotFD.Regs != 99 ||
		gotFD.Rays != fd.Rays || gotFD.ElapsedNs != fd.ElapsedNs {
		t.Errorf("frame-done round trip mismatch: %+v", gotFD)
	}

	if _, err := decodeTask([]byte{1, 2}); err == nil {
		t.Error("short task decoded")
	}
	if _, err := wire.DecodeFrameDone([]byte{1}); err == nil {
		t.Error("short frame-done decoded")
	}
	a, b, err := decodePair(encodePair(-7, 42))
	if err != nil || a != -7 || b != 42 {
		t.Errorf("pair round trip: %d,%d,%v", a, b, err)
	}
}
