package farm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowrender/internal/compositor"
	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
)

// dfbConfig is the canonical DFB test run: coherent delta+compressed
// wire frames shipped straight to in-process compositor sinks.
func dfbConfig(frames, sinks int) Config {
	return Config{
		Scene: farmScene(frames), W: fw, H: fh, Coherence: true, Workers: 3,
		Scheme:        partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true},
		WireDelta:     true,
		WireSpanCodec: true,
		DFB:           &DFBConfig{Sinks: sinks},
	}
}

// TestDFBGolden: the compositor-routed pipeline must produce the exact
// golden bytes of the master-routed pipeline — re-routing pixels
// may change who holds them, never what they are.
func TestDFBGolden(t *testing.T) {
	want := readGolden(t)
	for _, sinks := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("sinks=%d", sinks), func(t *testing.T) {
			res, err := RenderLocal(dfbConfig(goldenFrames, sinks))
			if err != nil {
				t.Fatal(err)
			}
			got := hashFrames(res.Frames)
			for f := range want {
				if got[f] != want[f] {
					t.Errorf("frame %d: hash %s, golden %s", f, got[f], want[f])
				}
			}
			if res.Wire.FramesAcked == 0 {
				t.Error("no frame acks: the run never used the DFB path")
			}
			if res.Wire.SinkIngressBytes == 0 {
				t.Error("SinkIngressBytes = 0: sinks confirmed no pixel bytes")
			}
		})
	}
}

// TestDFBMasterIngress: the whole point of the subsystem — pixel bytes
// must leave the master's ingress path. The master should receive only
// small control acks while the sinks take the pixel payloads, and the
// frames must be the master-routed run's, byte for byte.
func TestDFBMasterIngress(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scene   func() *scene.Scene
		w, h    int
		frames  int
		workers int
		scheme  partition.FrameDivision
		sinks   []int
		// minRatio is how far below the master-routed run's the master's
		// ingress must fall; ackBytes, when set, bounds it per frame.
		minRatio uint64
		ackBytes uint64
	}{
		// Large enough frames that pixel payloads dwarf the fixed-size
		// control acks — the regime the subsystem exists for. At
		// thumbnail sizes the ack overhead is comparable to a compressed
		// tile and the ratio is meaningless.
		{
			name: "quadrants", scene: func() *scene.Scene { return farmScene(4) },
			w: 160, h: 120, frames: 4, workers: 3,
			scheme: partition.FrameDivision{BlockW: 80, BlockH: 60, Adaptive: true},
			sinks:  []int{2}, minRatio: 4,
		},
		// The deployment shape: whole-frame blocks, so the control plane
		// is one 248-byte ack per frame however many sinks share the
		// pixels. An upper bound, not an equality: a frame requeued by a
		// steal can be confirmed by its sink without the ack having
		// counted. The master-routed total is not pinned at all — one
		// borderline steal moves it by a key-frame.
		{
			name: "whole-frame gallery", scene: func() *scene.Scene { return scenes.Gallery(0) },
			w: 120, h: 160, frames: 8, workers: 4,
			scheme: partition.FrameDivision{BlockW: 120, BlockH: 160, Adaptive: true},
			sinks:  []int{1, 2, 4}, minRatio: 25, ackBytes: 248,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func(dfb *DFBConfig) Config {
				return Config{
					Scene: tc.scene(), W: tc.w, H: tc.h, EndFrame: tc.frames,
					Coherence: true, Workers: tc.workers, Scheme: tc.scheme,
					WireDelta: true, WireSpanCodec: true, DFB: dfb,
				}
			}
			routed, err := RenderLocal(cfg(nil))
			if err != nil {
				t.Fatal(err)
			}
			if routed.Wire.MasterIngressBytes != routed.Wire.WireBytes {
				t.Errorf("master-routed: MasterIngressBytes %d != WireBytes %d (all results route through the master)",
					routed.Wire.MasterIngressBytes, routed.Wire.WireBytes)
			}
			for _, n := range tc.sinks {
				label := fmt.Sprintf("%d sinks", n)
				dfb, err := RenderLocal(cfg(&DFBConfig{Sinks: n}))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertFramesEqual(t, label, dfb.Frames, routed.Frames)
				if dfb.Wire.MasterIngressBytes*tc.minRatio >= routed.Wire.MasterIngressBytes {
					t.Errorf("%s: master ingress %d B not %dx below master-routed %d B",
						label, dfb.Wire.MasterIngressBytes, tc.minRatio, routed.Wire.MasterIngressBytes)
				}
				if max := tc.ackBytes * uint64(tc.frames); max > 0 && dfb.Wire.MasterIngressBytes > max {
					t.Errorf("%s: master ingress %d B over %d frames, want at most one %d B ack a frame",
						label, dfb.Wire.MasterIngressBytes, tc.frames, tc.ackBytes)
				}
				if dfb.Wire.SinkIngressBytes == 0 {
					t.Errorf("%s: confirmed no sink ingress", label)
				}
				t.Logf("%s: master ingress %d B vs master-routed %d B (%.1fx), %d acks; sink ingress %d B",
					label, dfb.Wire.MasterIngressBytes, routed.Wire.MasterIngressBytes,
					float64(routed.Wire.MasterIngressBytes)/float64(dfb.Wire.MasterIngressBytes),
					dfb.Wire.FramesAcked, dfb.Wire.SinkIngressBytes)
			}
		})
	}
}

// TestDFBOnFrameDelivery: under DFB the sinks own frame delivery — the
// caller's OnFrame must fire exactly once per frame with final pixels.
func TestDFBOnFrameDelivery(t *testing.T) {
	want := readGolden(t)
	var mu sync.Mutex
	seen := make(map[int]string)
	cfg := dfbConfig(goldenFrames, 2)
	cfg.OnFrame = func(f int, img *fb.Framebuffer) error {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[f]; dup {
			t.Errorf("frame %d delivered twice", f)
		}
		seen[f] = frameHash(img)
		return nil
	}
	if _, err := RenderLocal(cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != goldenFrames {
		t.Fatalf("OnFrame fired for %d frames, want %d", len(seen), goldenFrames)
	}
	for f, h := range seen {
		if h != want[f] {
			t.Errorf("frame %d via OnFrame: hash %s, golden %s", f, h, want[f])
		}
	}
}

// TestDFBWorkerDeathMidFrame: severing DFB workers mid-run must hand
// their unconfirmed frame ranges back to the master's retry machinery;
// the survivors re-render and the output stays byte-identical.
func TestDFBWorkerDeathMidFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	sc := farmScene(8)
	want := referenceFrames(t, sc)
	plan, err := faulty.ParsePlan("seed=11,sever=0.02,protect=worker00")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 4,
		Scheme:        partition.FrameDivision{BlockW: 20, BlockH: 16, Adaptive: true},
		WireDelta:     true,
		WireSpanCodec: true,
		DFB:           &DFBConfig{Sinks: 2},
		Heartbeat:     20 * time.Millisecond,
		Liveness:      2 * time.Second,
		StallTimeout:  1500 * time.Millisecond,
		FrameRetries:  2,
		Speculate:     true,
		Faults:        plan,
	})
	if err != nil {
		t.Fatalf("dfb chaos run failed: %v", err)
	}
	assertFramesEqual(t, "dfb-sever", res.Frames, want)
	if inj := plan.Snapshot(); inj.Severed == 0 {
		t.Skip("fault plan severed nothing; rerun covers it via other seeds")
	}
	t.Logf("absorbed %s with %d acks, %d base misses",
		res.Faults.String(), res.Wire.FramesAcked, res.Wire.DeltaBaseMisses)
}

// TestDFBChaosSoak: the full hostile-transport soak from chaos_test.go,
// with pixels routed through compositor sinks. Drops, corruption and
// severs on the control plane must not change a byte of output.
func TestDFBChaosSoak(t *testing.T) {
	cfg := Config{WireDelta: true, WireSpanCodec: true, DFB: &DFBConfig{Sinks: 2}}
	for _, seed := range []int64{7, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soak(t, seed, cfg, []driver{local}, faulty.Stats{}, stats.FaultCounters{})
		})
	}
}

// collectingRegistry is an in-process sink registry a test owns — so it
// can close sinks or gate dials from the outside — whose sinks hand
// every completed frame to the returned collector. A master given its
// Dial cannot collect frames itself; the test reads them from here.
func collectingRegistry(frames int) (*compositor.Registry, func() []*fb.Framebuffer) {
	var mu sync.Mutex
	collected := make([]*fb.Framebuffer, frames)
	reg := compositor.NewRegistry(func(i int) *compositor.Compositor {
		return compositor.New(compositor.Config{
			Name: compositor.Addr(i),
			OnFrame: func(f int, img *fb.Framebuffer) error {
				mu.Lock()
				defer mu.Unlock()
				collected[f] = img
				return nil
			},
		})
	})
	return reg, func() []*fb.Framebuffer {
		mu.Lock()
		defer mu.Unlock()
		return append([]*fb.Framebuffer(nil), collected...)
	}
}

// TestDFBSinkUnreachableFallsBack: workers that cannot dial their sinks
// fall back to master-routed results, which the master relays to the
// owning sink — the frames still assemble at the sinks, golden-identical.
func TestDFBSinkUnreachableFallsBack(t *testing.T) {
	want := readGolden(t)
	reg, frames := collectingRegistry(goldenFrames)
	defer reg.CloseAll()
	// The master dials each sink once before any worker gets a task;
	// every dial after that is a worker's, and fails.
	const sinks = 2
	var dials atomic.Int32
	cfg := dfbConfig(goldenFrames, sinks)
	cfg.DFB.Dial = func(addr string) (msg.Conn, error) {
		if dials.Add(1) > sinks {
			return nil, fmt.Errorf("no route to %s", addr)
		}
		return reg.Dial(addr)
	}
	res, err := RenderLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := hashFrames(frames())
	for f := range want {
		if got[f] != want[f] {
			t.Errorf("frame %d: hash %s, golden %s", f, got[f], want[f])
		}
	}
	if res.Wire.FramesAcked != 0 {
		t.Errorf("%d frame acks from workers that could reach no sink", res.Wire.FramesAcked)
	}
	if res.Wire.SinkIngressBytes == 0 {
		t.Error("the master relayed nothing to the sinks")
	}
	if res.Faults.WorkersLost != 0 {
		t.Errorf("fallback cost %d workers", res.Faults.WorkersLost)
	}
}

// TestDFBSinkRestart: killing a compositor mid-run must trigger the
// master's redial-and-requeue recovery. The test owns the registry so
// it can close a sink from the outside; a later Dial on the same
// address recreates it — exactly a compositor process restart.
func TestDFBSinkRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart chaos skipped in -short mode")
	}
	sc := farmScene(8)
	want := referenceFrames(t, sc)
	reg, frames := collectingRegistry(8)
	defer reg.CloseAll()

	// Kill sink 0 once, after it has confirmed at least one frame.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-deadline:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if s := reg.Sink(0); s != nil && s.Stats().SinkIngressBytes > 0 {
				s.Close()
				return
			}
		}
	}()

	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 3,
		Scheme:        partition.FrameDivision{BlockW: 20, BlockH: 16, Adaptive: true},
		WireDelta:     true,
		WireSpanCodec: true,
		DFB:           &DFBConfig{Sinks: 2, Dial: reg.Dial, Redials: 4},
		Heartbeat:     20 * time.Millisecond,
		Liveness:      2 * time.Second,
		StallTimeout:  1500 * time.Millisecond,
		FrameRetries:  2,
	})
	if err != nil {
		t.Fatalf("run with sink restart failed: %v", err)
	}
	<-killed
	assertFramesEqual(t, "sink-restart", frames(), want)
	if res.Wire.FramesAcked == 0 {
		t.Error("restart run recorded no acks")
	}
	// A restarted sink loses its reassembly state, so in-flight delta
	// chains break; whatever misses occurred must be attributed.
	assertBaseMissConsistent(t, res.Wire)
	t.Logf("restart absorbed: %d base misses (%v), %d requeued",
		res.Wire.DeltaBaseMisses, res.Wire.BaseMissByWorker, res.Faults.FramesRequeued)
}

// assertBaseMissConsistent: the per-worker base-miss breakdown must sum
// to the total, and never carry empty entries.
func assertBaseMissConsistent(t *testing.T, w stats.WireStats) {
	t.Helper()
	var sum uint64
	for name, n := range w.BaseMissByWorker {
		if n == 0 {
			t.Errorf("worker %s recorded a zero base-miss entry", name)
		}
		sum += n
	}
	if sum != w.DeltaBaseMisses {
		t.Errorf("BaseMissByWorker sums to %d, DeltaBaseMisses = %d", sum, w.DeltaBaseMisses)
	}
}

// TestDFBTaskRejectsUndialableSinks: a run whose sinks cannot be dialed
// must fail up front, not hang waiting for confirmations.
func TestDFBTaskRejectsUndialableSinks(t *testing.T) {
	cfg := dfbConfig(goldenFrames, 1)
	cfg.DFB.Dial = func(addr string) (msg.Conn, error) {
		return nil, fmt.Errorf("no route to %s", addr)
	}
	if _, err := RenderLocal(cfg); err == nil {
		t.Fatal("run with undialable sinks succeeded")
	}
}
