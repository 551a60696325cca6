package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/framecache"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/tga"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
	"nowrender/internal/wire"
)

// Per-layer metrics. Each is either read from what the program already
// returns (RunStats, FrameReport, farm.Result, service.Status, the
// merged timeline) or measured here by timing calls into a layer's
// public functions on inputs captured from the workload. A workload
// reports 0 for the layers it bypasses.

// tracerLayers covers the layers every workload sits on: the scene
// builder, the tracer and the grid.
func (b *base) tracerLayers(tr *tracer, out *repOut, m metrics) error {
	defer tr.begin("probe tracer")()
	m["scenes.build_ms"] = millis(b.sceneBuild)
	m["trace.rays_per_frame"] = ratio(float64(out.rays), float64(b.frames()))
	m["trace.mrays_per_s"] = ratio(float64(totalRays(b.refRun))/1e6, seconds(b.refRun.SumFrameTime()))

	var first *trace.FrameTracer
	start := time.Now()
	for f := b.start; f < b.end; f++ {
		done := tr.begin("trace.New")
		ft, err := trace.New(b.sc, f, trace.Options{})
		done()
		if err != nil {
			return err
		}
		if first == nil {
			first = ft
		}
	}
	m["trace.build_ms_per_frame"] = millis(time.Since(start)) / float64(b.frames())

	rays := make([]vm.Ray, 0, b.w*b.h)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			rays = append(rays, first.CameraRay(x, y, b.w, b.h, 0.5, 0.5))
		}
	}
	const passes = 8
	g, visited := first.Grid(), 0
	done := tr.begin("Grid.Walk")
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, r := range rays {
			g.Walk(r, 0, 1e18, func(int, float64, float64) bool { visited++; return true })
		}
	}
	walk := time.Since(start)
	done()
	if visited == 0 {
		return fmt.Errorf("grid walk visited no voxel")
	}
	m["grid.walk_ns_per_ray"] = float64(walk) / float64(passes*len(rays))
	return nil
}

// coherenceShares are the coherence figures of any coherent run: how
// many pixels it copied and how many rays that saved.
func (b *base) coherenceShares(rendered, copied int, out *repOut, m metrics) {
	m["coherence.copied_pixel_share"] = ratio(float64(copied), float64(rendered+copied))
	m["coherence.ray_reduction_x"] = ratio(float64(totalRays(b.refRun)), float64(out.rays))
}

func (p *plainWL) layers(tr *tracer, out *repOut, m metrics) error {
	return p.tracerLayers(tr, out, m)
}

func (c *fcWL) layers(tr *tracer, out *repOut, m metrics) error {
	if err := c.tracerLayers(tr, out, m); err != nil {
		return err
	}
	var rendered, copied int
	for _, r := range out.reports {
		rendered += r.Rendered
		copied += r.Copied
	}
	c.coherenceShares(rendered, copied, out, m)
	n := float64(c.frames())
	m["coherence.first_frame_ms"] = millis(out.firstFrame)
	m["coherence.first_frame_overhead_pct"] = 100 * ratio(seconds(out.firstFrame-c.refFirst), seconds(c.refFirst))
	var steady sample
	for _, f := range out.run.Frames[1:] {
		steady = append(steady, millis(f.Elapsed))
	}
	m["coherence.steady_frame_ms"] = steady.median()
	var overhead time.Duration
	var regs uint64
	for _, r := range out.reports {
		overhead += r.Overhead
		regs += r.Registrations
	}
	m["coherence.change_detect_ms_per_frame"] = millis(overhead) / n
	m["coherence.registrations_per_frame"] = float64(regs) / n
	done := tr.begin("Engine.RegistrationCount")
	m["coherence.live_registrations_end"] = float64(out.engine.RegistrationCount())
	done()
	m["coherence.alloc_mb_per_frame"] = mb(out.alloc) / n
	m["coherence.speedup_vs_plain_x"] = ratio(seconds(c.refTime), seconds(out.makespan))
	// The time the coherent pass would need if tracing its rays at the
	// reference rate were all it did; the rest is bookkeeping.
	tracing := ratio(float64(out.rays)/1e6, m["trace.mrays_per_s"])
	m["coherence.bookkeeping_share"] = 1 - ratio(tracing, seconds(out.makespan))
	return nil
}

// timelineLayers reads the program's merged timeline: who was busy, who
// waited, and what the recorder itself cost.
func timelineLayers(tl *timeline.Timeline, m metrics) {
	if tl == nil {
		return
	}
	rep := timeline.Analyze(tl)
	var busy sample
	for _, g := range rep.Groups {
		if g.Frames > 0 {
			busy = append(busy, g.Utilisation)
		}
	}
	m["farm.worker_busy_share"] = busy.mean()
	m["farm.imbalance_x"] = rep.Imbalance

	lastFrame := map[string]int64{}
	var dispatches, steals, dropped float64
	var byOp [3]time.Duration // recv, encode, send
	for i := range tl.Tracks {
		td := &tl.Tracks[i]
		dropped += float64(td.Dropped)
		for _, e := range td.Events {
			switch e.Op {
			case timeline.OpFrame:
				if e.End() > lastFrame[td.Group()] {
					lastFrame[td.Group()] = e.End()
				}
			case timeline.OpRecv:
				byOp[0] += time.Duration(e.Dur)
			case timeline.OpEncode:
				byOp[1] += time.Duration(e.Dur)
			case timeline.OpSend:
				byOp[2] += time.Duration(e.Dur)
			case timeline.OpDeltaApply:
				m["farm.delta_apply_count"]++
			case timeline.OpDispatch:
				dispatches++
			case timeline.OpSteal:
				steals++
			}
		}
	}
	var ends sample
	for _, e := range lastFrame {
		ends = append(ends, float64(e))
	}
	m["farm.tail_idle_ms"] = (ends.max() - ends.min()) / 1e6
	m["farm.recv_wait_ms"] = millis(byOp[0])
	m["farm.encode_ms"] = millis(byOp[1])
	m["farm.send_ms"] = millis(byOp[2])
	m["timeline.events"] = float64(tl.Events())
	m["timeline.dropped"] = dropped
	// The service reports no farm.Result; its task counts come from the
	// master's dispatch and steal instants. farmLayers overwrites them.
	m["farm.tasks_executed"] = dispatches
	m["farm.subdivisions"] = steals
}

// farmLayers reads a farm.Result.
func (b *base) farmLayers(scheme partition.Scheme, out *repOut, m metrics) {
	res := out.farm
	n := float64(b.frames())
	timelineLayers(out.tl, m)
	m["partition.initial_tasks"] = float64(len(scheme.InitialTasks(b.w, b.h, b.start, b.end, b.workers)))
	m["farm.tasks_executed"] = float64(res.TasksExecuted)
	m["farm.subdivisions"] = float64(res.Subdivisions)
	m["farm.speedup_vs_plain_x"] = ratio(seconds(b.refTime), seconds(out.makespan))
	m["farm.frames_requeued"] = float64(res.Faults.FramesRequeued)
	m["farm.workers_lost"] = float64(res.Faults.WorkersLost)
	wireLayers(res.Wire.WireBytes, res.Wire.RawBytes, res.Wire.FramesFull, res.Wire.FramesDelta, res.Wire.DeltaBaseMisses, n, m)
}

func wireLayers(wireBytes, rawBytes, full, delta, misses uint64, frames float64, m metrics) {
	m["wire.base_misses"] = float64(misses)
	m["wire.bytes_per_frame"] = float64(wireBytes) / frames
	m["wire.ratio_x"] = ratio(float64(rawBytes), float64(wireBytes))
	m["wire.frames_full"] = float64(full)
	m["wire.frames_delta"] = float64(delta)
	m["wire.computed_10mbit_ms_per_frame"] = float64(wireBytes) / frames * 0.8e-3
}

// capturedResult is one frame result as a worker would hand it to the
// wire encoder.
type capturedResult struct {
	task, frame int
	region      fb.Rect
	img         *fb.Framebuffer
	spans       []fb.Span // nil on the plain path
	first       bool
}

// wireProbe times the wire codec on captured results: Encoder.Encode on
// the worker side, DecodeFrameDone + Assembly delivery on the master
// side, and the span codec underneath on the same payloads. The
// assembled frames must equal the reference.
func (b *base) wireProbe(tr *tracer, results []capturedResult, flags int, m metrics) error {
	defer tr.begin("probe wire")()
	encoders := map[int]*wire.Encoder{}
	msgs := make([][]byte, len(results))
	var deltas, keys [][]byte // raw payloads for the span codec probe
	var strides []int
	done := tr.begin("Encoder.Encode")
	var encode time.Duration
	for i, r := range results {
		enc := encoders[r.task]
		if enc == nil {
			enc = &wire.Encoder{}
			encoders[r.task] = enc
		}
		fd := wire.FrameDone{TaskID: r.task, Frame: r.frame, Region: r.region}
		t := time.Now()
		msgs[i] = enc.Encode(&fd, r.img, flags, r.spans, r.first)
		encode += time.Since(t)
		if fd.Kind == wire.KindDelta {
			deltas = append(deltas, r.img.AppendSpans(nil, fd.Spans))
		} else {
			keys = append(keys, wire.ExtractRegion(r.img, r.region))
			strides = append(strides, wire.FilterStride(r.region))
		}
	}
	done()
	m["wire.encode_us_per_result"] = micros(encode) / float64(len(results))

	done = tr.begin("DecodeFrameDone+Assembly.Deliver")
	asm := wire.NewAssemblyRange(b.w, b.h, b.start, b.end)
	t := time.Now()
	for _, data := range msgs {
		fd, err := wire.DecodeFrameDone(data)
		if err != nil {
			return err
		}
		if fd.Kind == wire.KindDelta {
			_, _, err = asm.DeliverSpans(fd.Frame, fd.Region, fd.Spans, fd.Pix, 0)
		} else {
			_, _, err = asm.Deliver(fd.Frame, fd.Region, fd.Pix, 0)
		}
		fd.Release()
		if err != nil {
			return err
		}
	}
	m["wire.decode_apply_us_per_result"] = micros(time.Since(t)) / float64(len(msgs))
	done()
	for i, img := range asm.Frames() {
		if img == nil || !bytes.Equal(img.Pix, b.ref[i].Pix) {
			return fmt.Errorf("wire probe: assembled frame %d differs from the reference", b.start+i)
		}
	}

	// The span codec alone, on the payloads the encoder just saw.
	payloads := deltas
	if len(payloads) == 0 {
		payloads = keys
	}
	done = tr.begin("msg.SpanCompress")
	var raw, comp, decomp = 0, time.Duration(0), time.Duration(0)
	var z, back []byte
	const passes = 4
	for p := 0; p < passes; p++ {
		for _, src := range payloads {
			t := time.Now()
			z = msg.SpanCompress(z[:0], src)
			comp += time.Since(t)
			if cap(back) < len(src) {
				back = make([]byte, len(src))
			}
			t = time.Now()
			err := msg.SpanDecompress(back[:len(src)], z)
			decomp += time.Since(t)
			if err != nil {
				return err
			}
			raw += len(src)
		}
	}
	done()
	m["msg.span_compress_mb_s"] = ratio(float64(raw)/1e6, seconds(comp))
	m["msg.span_decompress_mb_s"] = ratio(float64(raw)/1e6, seconds(decomp))
	done = tr.begin("msg.SpanCompressFiltered")
	raw, comp = 0, 0
	for p := 0; p < passes; p++ {
		for i, src := range keys {
			t := time.Now()
			z = msg.SpanCompressFiltered(z[:0], src, strides[i])
			comp += time.Since(t)
			raw += len(src)
		}
	}
	done()
	m["msg.span_key_compress_mb_s"] = ratio(float64(raw)/1e6, seconds(comp))
	return nil
}

// roundtrip times 4 KiB messages there and back over a connected pair.
func roundtrip(near, far msg.Conn) (time.Duration, error) {
	const n = 2000
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			mm, err := far.Recv()
			if err == nil {
				err = far.Send(mm)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	payload := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := near.Send(msg.Message{Tag: 1, Data: payload}); err != nil {
			return 0, err
		}
		if _, err := near.Recv(); err != nil {
			return 0, err
		}
	}
	total := time.Since(start)
	return total / n, <-echoed
}

func pipeRoundtrip(tr *tracer, m metrics) error {
	defer tr.begin("probe msg.Pipe roundtrip")()
	a, c := msg.Pipe(16)
	defer a.Close()
	defer c.Close()
	d, err := roundtrip(a, c)
	m["msg.pipe_roundtrip_us"] = micros(d)
	return err
}

func tcpRoundtrip(tr *tracer, ln *msg.Listener, m metrics) error {
	defer tr.begin("probe msg TCP roundtrip")()
	near, err := msg.Dial(ln.Addr())
	if err != nil {
		return err
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		return err
	}
	defer far.Close()
	d, err := roundtrip(near, far)
	m["msg.tcp_roundtrip_us"] = micros(d)
	return err
}

func (w *fcFarmWL) layers(tr *tracer, out *repOut, m metrics) error {
	if err := w.tracerLayers(tr, out, m); err != nil {
		return err
	}
	w.farmLayers(w.scheme(), out, m)

	// Capture what the workers encode: one coherence engine per initial
	// block, every frame of the window. (The master's RunStats carry no
	// rendered/copied split, so the copied share comes from here too.)
	done := tr.begin("capture block results")
	var results []capturedResult
	var rendered, copied int
	for _, task := range w.scheme().InitialTasks(w.w, w.h, w.start, w.end, w.workers) {
		eng, err := coherence.NewEngine(w.sc, w.w, w.h, task.Region, task.StartFrame, task.EndFrame, coherence.Options{Threads: 1})
		if err != nil {
			return err
		}
		for f := task.StartFrame; f < task.EndFrame; f++ {
			img := fb.New(w.w, w.h)
			rep, err := eng.RenderFrame(f, img)
			if err != nil {
				return err
			}
			rendered, copied = rendered+rep.Rendered, copied+rep.Copied
			results = append(results, capturedResult{
				task: task.ID, frame: f, region: task.Region, img: img,
				spans: append([]fb.Span{}, eng.LastSpans()...), first: f == task.StartFrame,
			})
		}
	}
	done()
	w.coherenceShares(rendered, copied, out, m)
	if err := w.wireProbe(tr, results, wire.CapDelta|wire.CapSpanCodec, m); err != nil {
		return err
	}
	if err := tcpRoundtrip(tr, w.ln, m); err != nil {
		return err
	}

	// Master-routed vs distributed framebuffer, in-process.
	defer tr.begin("probe compositor")()
	var spans [2]time.Duration
	for i, dfb := range []*farm.DFBConfig{nil, {Sinks: 1}} {
		probe := &repOut{}
		cfg := w.farmConfig(probe, time.Now(), nil)
		cfg.Scheme, cfg.Coherence, cfg.WireDelta, cfg.DFB = w.scheme(), true, true, dfb
		done := tr.begin("farm.RenderLocal")
		t := time.Now()
		res, err := farm.RenderLocal(cfg)
		spans[i] = time.Since(t)
		done()
		if err != nil {
			return err
		}
		if _, failed := w.check(res.Frames); failed != 0 {
			return fmt.Errorf("compositor probe (dfb=%v): %d frames differ from the reference", dfb != nil, failed)
		}
		if dfb != nil {
			m["compositor.master_ingress_bytes_per_frame"] = float64(res.Wire.MasterIngressBytes) / float64(w.frames())
		}
	}
	m["compositor.dfb_makespan_x"] = ratio(seconds(spans[1]), seconds(spans[0]))
	return nil
}

func (w *meshFarmWL) layers(tr *tracer, out *repOut, m metrics) error {
	if err := w.tracerLayers(tr, out, m); err != nil {
		return err
	}
	w.farmLayers(w.scheme(), out, m)

	// The plain path ships every block of every frame as a key-frame; the
	// reference frames are exactly those pixels.
	var results []capturedResult
	for _, task := range w.scheme().InitialTasks(w.w, w.h, w.start, w.end, w.workers) {
		for f := task.StartFrame; f < task.EndFrame; f++ {
			results = append(results, capturedResult{
				task: task.ID, frame: f, region: task.Region, img: w.ref[f-w.start], first: f == task.StartFrame,
			})
		}
	}
	if err := w.wireProbe(tr, results, wire.CapSpanCodec, m); err != nil {
		return err
	}
	if err := pipeRoundtrip(tr, m); err != nil {
		return err
	}

	os := out.farm.ObjSpace
	m["objspace.rays_forwarded_per_frame"] = float64(os.RaysForwarded) / float64(w.frames())
	m["objspace.forward_bytes_per_ray"] = ratio(float64(os.ForwardBytes), float64(os.RaysForwarded))
	m["objspace.peak_resident_bytes"] = float64(os.PeakResidentBytes)

	// Sharded vs replicated on six frames spread over the window.
	defer tr.begin("probe objspace")()
	var replicated, sharded, build time.Duration
	var resident uint64
	img := fb.New(w.w, w.h)
	const samples = 6
	for i := 0; i < samples; i++ {
		f := w.start + i*w.frames()/samples
		done := tr.begin("replicated frame")
		t := time.Now()
		ft, err := trace.New(w.sc, f, trace.Options{})
		if err != nil {
			return err
		}
		ft.RenderRegionParallelWorkers(img, w.full(), 1, f, nil, ft.NewWorker)
		replicated += time.Since(t)
		done()

		done = tr.begin("objspace.Build")
		t = time.Now()
		cl, err := objspace.Build(w.sc, f, trace.Options{}, objspace.Options{Shards: 4})
		if err != nil {
			return err
		}
		build += time.Since(t)
		done()
		done = tr.begin("sharded frame")
		cl.Tracer().RenderRegionParallelWorkers(img, w.full(), 1, f, nil, cl.NewWorker)
		sharded += time.Since(t)
		done()
		if !bytes.Equal(img.Pix, w.ref[f-w.start].Pix) {
			return fmt.Errorf("objspace probe: sharded frame %d differs from the reference", f)
		}
		r, err := objspace.ReplicatedResident(w.sc, f, trace.Options{})
		if err != nil {
			return err
		}
		if r > resident {
			resident = r
		}
	}
	m["objspace.overhead_x"] = ratio(seconds(sharded), seconds(replicated))
	m["objspace.build_ms_per_frame"] = millis(build) / samples
	m["objspace.resident_vs_replicated"] = ratio(float64(os.PeakResidentBytes), float64(resident))
	return nil
}

func (w *serviceWL) layers(tr *tracer, out *repOut, m metrics) error {
	if err := w.tracerLayers(tr, out, m); err != nil {
		return err
	}
	so := out.svc
	timelineLayers(out.tl, m)
	scheme := partition.FrameDivision{BlockW: 80, BlockH: 80, Adaptive: true} // the service's "framediv"
	m["partition.initial_tasks"] = float64(len(scheme.InitialTasks(w.w, w.h, w.start, w.end, w.workers)))
	m["farm.frames_requeued"] = float64(so.cold.FramesRequeued)
	m["farm.workers_lost"] = float64(so.cold.WorkersLost)
	wireLayers(so.wire.WireBytes, so.wire.RawBytes, so.wire.FramesFull, so.wire.FramesDelta, so.wire.DeltaBaseMisses, float64(w.frames()), m)
	if err := pipeRoundtrip(tr, m); err != nil {
		return err
	}

	m["service.queue_ms"] = float64(so.cold.QueueDurationMS)
	m["service.run_ms"] = float64(so.cold.RunDurationMS)
	m["service.overhead_ms"] = millis(so.coldClient) - float64(so.cold.RunDurationMS)
	var warm, fetch, scrape sample
	for _, d := range so.warmJobs {
		warm = append(warm, millis(d))
	}
	for _, d := range so.fetches {
		fetch = append(fetch, micros(d))
	}
	for _, d := range so.scrapes {
		scrape = append(scrape, micros(d))
	}
	m["service.warm_job_ms"] = warm.median()
	m["service.warm_jobs_per_s"] = ratio(float64(len(so.warmJobs)), seconds(so.warmPhase))
	m["service.http_frame_fetch_us"] = fetch.median()
	m["service.metrics_scrape_us"] = scrape.median()
	hits := float64(so.afterWarm.Hits - so.afterCold.Hits)
	misses := float64(so.afterWarm.Misses - so.afterCold.Misses)
	m["framecache.hit_share"] = ratio(hits, hits+misses)

	defer tr.begin("probe framecache+tga")()
	const passes = 20
	cache := framecache.New(64 << 20)
	seq := framecache.NewSeqKey(w.spec, w.w, w.h, 1)
	t := time.Now()
	for p := 0; p < passes; p++ {
		for i, img := range w.ref {
			cache.Put(framecache.Key{Seq: seq, Frame: i}, img)
		}
	}
	m["framecache.put_us"] = micros(time.Since(t)) / float64(passes*len(w.ref))
	t = time.Now()
	for p := 0; p < passes; p++ {
		for i := range w.ref {
			if _, ok := cache.Get(framecache.Key{Seq: seq, Frame: i}); !ok {
				return fmt.Errorf("framecache probe: frame %d missing", i)
			}
		}
	}
	m["framecache.get_us"] = micros(time.Since(t)) / float64(passes*len(w.ref))
	t = time.Now()
	for p := 0; p < passes; p++ {
		for _, img := range w.ref {
			if err := tga.Encode(io.Discard, img); err != nil {
				return err
			}
		}
	}
	m["tga.encode_mb_s"] = ratio(float64(passes*len(w.ref)*len(w.ref[0].Pix))/1e6, seconds(time.Since(t)))
	return nil
}
