package farm

import (
	"fmt"
	"sort"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
)

// vworker is the per-machine state of the virtual driver.
type vworker struct {
	id      int
	task    partition.Task
	hasTask bool
	next    int // next frame to render within task
	engine  *coherence.Engine
	buf     *fb.Framebuffer

	tasksDone  int
	pixelsDone int
	rays       stats.RayCounters
}

// remaining returns the frames the worker has not started.
func (w *vworker) remaining() int {
	if !w.hasTask {
		return 0
	}
	return w.task.EndFrame - w.next
}

// RenderVirtual runs the farm on the deterministic virtual NOW: the real
// rendering computation executes inline (in event order) and virtual
// time is charged per work quantity and message. Repeated runs with the
// same Config produce identical images, statistics and makespans.
func RenderVirtual(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	sc := cfg.Scene
	now, err := cluster.NewVirtualNOW(cfg.Machines, cfg.Net, cfg.Cost)
	if err != nil {
		return nil, err
	}

	queue := cfg.Scheme.InitialTasks(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame, len(cfg.Machines))
	if err := partition.ValidateTiling(queue, cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame); err != nil {
		return nil, err
	}

	workers := make([]*vworker, len(cfg.Machines))
	for i := range workers {
		workers[i] = &vworker{id: i}
	}
	asm := newAssemblyRange(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame)
	res := &Result{}
	frameWork := make([]time.Duration, sc.Frames)
	frameRays := make([]stats.RayCounters, sc.Frames)
	frameRendered := make([]int, sc.Frames)
	frameCopied := make([]int, sc.Frames)

	const taskMsgBytes = 64 // task descriptor on the wire

	// With wire modes enabled the virtual driver runs the real frame
	// codec — delta spans, size guard, span codec — so modelled byte
	// counts are the true wire costs, not estimates. Off (the default) it
	// keeps the flat per-result charge, preserving historical makespans.
	wireOn := cfg.WireDelta || cfg.WireSpanCodec
	wireFlags := cfg.wireFlags()
	var wireEnc frameEncoder // shared scratch; the event loop is sequential

	// Object-space sharding in the virtual model: rendering runs inline
	// through the sharded partition (so forwarding counts are the real
	// ones) and the run-level counters land in Result.ObjSpace.
	var vos *objspace.Stats
	if cfg.ObjSpaceShards >= 2 {
		vos = &objspace.Stats{}
	}

	// DFB modeling: with sinks configured, the pixel payload is charged
	// to sink ingress and the master is charged only the real encoded
	// sizes of the worker's ack and the sink's confirmation — the same
	// three messages the live path exchanges, so virtual ingress ratios
	// predict live ones.
	dfbOn := wireOn && cfg.DFB != nil && (cfg.DFB.Sinks > 0 || len(cfg.DFB.Addrs) > 0)
	var dfbShard partition.ShardMap
	if dfbOn {
		n := cfg.DFB.Sinks
		if len(cfg.DFB.Addrs) > 0 {
			n = len(cfg.DFB.Addrs)
		}
		if frames := cfg.EndFrame - cfg.StartFrame; n > frames {
			n = frames
		}
		dfbShard = partition.ShardMap{Start: cfg.StartFrame, End: cfg.EndFrame, N: n}
	}

	// Timeline recording on the virtual clock: events carry explicit
	// virtual timestamps (Span/InstantAt), all machines share the model's
	// clock, so no offset correction applies. Nil recorder = nil tracks =
	// one branch per site.
	rec := cfg.Timeline
	mtv := rec.Track("master/loop")
	vtracks := make([]*timeline.Track, len(workers))
	if rec != nil {
		for i := range workers {
			vtracks[i] = rec.Track(cfg.Machines[i].Name + "/main")
		}
	}

	assign := func(w *vworker, t partition.Task) error {
		mtv.InstantAt(timeline.OpDispatch, t.StartFrame, int64(now.Time(w.id)), int64(t.ID))
		w.task = t
		w.hasTask = true
		w.next = t.StartFrame
		w.engine = nil
		if w.buf == nil {
			w.buf = fb.New(cfg.W, cfg.H)
		}
		if cfg.Coherence && t.Frames() >= 1 {
			opts := cfg.CoherenceOpts
			opts.SamplesPerPixel = cfg.Samples
			if opts.Threads == 0 {
				opts.Threads = cfg.Threads
			}
			if vos != nil {
				opts.ObjSpaceShards = cfg.ObjSpaceShards
				opts.ObjSpaceStats = vos
			}
			eng, err := coherence.NewEngine(sc, cfg.W, cfg.H, t.Region, t.StartFrame, t.EndFrame, opts)
			if err != nil {
				return err
			}
			w.engine = eng
		}
		res.TasksExecuted++
		now.Communicate(w.id, taskMsgBytes)
		res.BytesTransferred += taskMsgBytes
		return nil
	}

	// stealInto finds the most-loaded worker and moves half its
	// unstarted frames to thief. The thief starts a fresh engine on the
	// stolen range (it cannot inherit the victim's pixel lists), which is
	// exactly the coherence penalty adaptive subdivision pays in the
	// paper.
	stealInto := func(thief *vworker) (bool, error) {
		// With coherence on, the thief pays a cold first frame on the
		// stolen range, so only ranges with a few frames are worth
		// moving.
		minRemaining := 2
		if cfg.Coherence {
			minRemaining = 4
		}
		var victim *vworker
		for _, w := range workers {
			if w == thief || w.remaining() < minRemaining {
				continue
			}
			if victim == nil || w.remaining() > victim.remaining() {
				victim = w
			}
		}
		if victim == nil {
			return false, nil
		}
		rem := victim.task
		rem.StartFrame = victim.next
		keep, give, ok := cfg.Scheme.Subdivide(rem)
		if !ok || give.Frames() == 0 {
			return false, nil
		}
		victim.task.EndFrame = keep.EndFrame
		// Truncating the victim's engine range is safe: the engine only
		// checks consecutive ordering, and the victim simply stops
		// earlier. The stolen range becomes a fresh task.
		res.Subdivisions++
		return true, assign(thief, give)
	}

	// renderOneFrame executes worker w's next frame, charging the
	// virtual clock, and delivers the pixels to the assembly.
	renderOneFrame := func(w *vworker) error {
		f := w.next
		var work cluster.Work
		var rc stats.RayCounters
		if w.engine != nil {
			rep, err := w.engine.RenderFrame(f, w.buf)
			if err != nil {
				return err
			}
			rc = rep.Rays
			frameRendered[f] += rep.Rendered
			frameCopied[f] += rep.Copied
			work = cluster.Work{
				Rays:          rep.Rays.Total(),
				Registrations: rep.Registrations,
				CopiedPixels:  uint64(rep.Copied),
				ChangeVoxels:  uint64(rep.ChangeVoxels),
				MemoryMB:      w.task.MemoryMB(),
			}
		} else if vos != nil {
			cl, err := objspace.Build(sc, f, trace.Options{SamplesPerPixel: cfg.Samples},
				objspace.Options{Shards: cfg.ObjSpaceShards, Stats: vos})
			if err != nil {
				return err
			}
			ft := cl.Tracer()
			ft.RenderRegionParallelWorkers(w.buf, w.task.Region, cfg.Threads, f, nil, cl.NewWorker)
			rc = ft.Counters
			work = cluster.Work{Rays: ft.Counters.Total(), MemoryMB: w.task.PlainMemoryMB()}
			frameRendered[f] += w.task.Region.Area()
		} else {
			ft, err := trace.New(sc, f, trace.Options{SamplesPerPixel: cfg.Samples})
			if err != nil {
				return err
			}
			ft.RenderRegionParallel(w.buf, w.task.Region, cfg.Threads)
			rc = ft.Counters
			work = cluster.Work{Rays: ft.Counters.Total(), MemoryMB: w.task.PlainMemoryMB()}
			frameRendered[f] += w.task.Region.Area()
		}
		frameRays[f].Merge(rc)
		before := now.Time(w.id)
		now.Exec(w.id, work)
		execTime := now.Time(w.id) - before
		execEnd := now.Time(w.id)
		vtracks[w.id].Span(timeline.OpFrame, f, int64(before), int64(execEnd), int64(frameRendered[f]))

		// Ship the region back to the master over the shared bus.
		var complete bool
		var sendEnd time.Duration
		if wireOn {
			fd := frameDoneMsg{TaskID: w.task.ID, Frame: f, Region: w.task.Region}
			var spans []fb.Span
			if w.engine != nil {
				spans = w.engine.LastSpans()
			}
			data := wireEnc.Encode(&fd, w.buf, wireFlags, spans, f == w.task.StartFrame)
			end := now.Communicate(w.id, len(data))
			sendEnd = end
			res.BytesTransferred += int64(len(data))
			res.Wire.WireBytes += uint64(len(data))
			res.Wire.RawBytes += uint64(w.task.Region.Area() * 3)
			res.Wire.CountEncoding(fd.Encoding == encSpan, uint64(len(data)))
			rd, err := decodeFrameDone(data)
			if err != nil {
				return err
			}
			if rd.Kind == frameDelta {
				res.Wire.FramesDelta++
				complete, _, err = asm.DeliverSpans(f, w.task.Region, rd.Spans, rd.Pix, end)
			} else {
				res.Wire.FramesFull++
				complete, _, err = asm.Deliver(f, w.task.Region, rd.Pix, end)
			}
			rd.Release()
			if err != nil {
				return err
			}
			if dfbOn {
				// Charge the master the control-plane bytes the live path
				// would carry: the worker's ack and the sink's confirm,
				// encoded for real so their sizes are exact.
				ack := encodeFrameAck(frameAckMsg{
					TaskID: w.task.ID, Frame: f, Region: w.task.Region,
					Kind: fd.Kind, Encoding: fd.Encoding,
					Sink: dfbShard.Of(f), SinkBytes: len(data),
					Rendered: w.task.Region.Area(), Rays: rc,
					ElapsedNs: int64(execTime),
				})
				confirm := compositor.EncodeDelivered(compositor.Delivered{
					Gen: 1, Frame: f, Region: w.task.Region,
					Worker: cfg.Machines[w.id].Name, Kind: fd.Kind,
					WireBytes: len(data), RawBytes: w.task.Region.Area() * 3,
					Complete: complete,
				})
				control := uint64(len(ack) + len(confirm))
				res.BytesTransferred += int64(control)
				res.Wire.WireBytes += control
				res.Wire.MasterIngressBytes += control
				res.Wire.SinkIngressBytes += uint64(len(data))
				res.Wire.FramesAcked++
			} else {
				res.Wire.MasterIngressBytes += uint64(len(data))
			}
		} else {
			pix := extractRegion(w.buf, w.task.Region)
			resultBytes := len(pix) + 32
			end := now.Communicate(w.id, resultBytes)
			sendEnd = end
			res.BytesTransferred += int64(resultBytes)
			var err error
			complete, _, err = asm.Deliver(f, w.task.Region, pix, end)
			if err != nil {
				return err
			}
		}
		vtracks[w.id].Span(timeline.OpSend, f, int64(execEnd), int64(sendEnd), int64(w.task.Region.Area()*3))
		if complete && cfg.OnFrame != nil {
			if err := cfg.OnFrame(f, asm.Frame(f)); err != nil {
				return err
			}
		}
		frameWork[f] += execTime
		w.rays.Merge(rc)
		w.pixelsDone += w.task.Region.Area()
		w.next++
		if w.next >= w.task.EndFrame {
			w.hasTask = false
			w.engine = nil
			w.tasksDone++
		}
		return nil
	}

	// Event loop: repeatedly give work to idle machines (queue first,
	// then steal) and advance the earliest busy machine by one frame.
	for {
		// Cancellation is checked once per event, so a cancelled run
		// stops after at most one more frame of one worker.
		if err := cfg.cancelled(); err != nil {
			return nil, err
		}
		// Hand queued tasks to idle machines, cheapest clock first.
		for len(queue) > 0 {
			idle := -1
			for _, w := range workers {
				if !w.hasTask && (idle < 0 || now.Time(w.id) < now.Time(workers[idle].id)) {
					idle = w.id
				}
			}
			if idle < 0 {
				break
			}
			t := queue[0]
			queue = queue[1:]
			if err := assign(workers[idle], t); err != nil {
				return nil, err
			}
		}
		// Steal for any remaining idle machines.
		if len(queue) == 0 {
			for _, w := range workers {
				if w.hasTask {
					continue
				}
				if ok, err := stealInto(w); err != nil {
					return nil, err
				} else if ok {
					continue
				}
			}
		}
		// Advance the earliest busy machine.
		busy := -1
		for _, w := range workers {
			if w.hasTask && (busy < 0 || now.Time(w.id) < now.Time(workers[busy].id)) {
				busy = w.id
			}
		}
		if busy < 0 {
			if len(queue) == 0 {
				break
			}
			return nil, fmt.Errorf("farm: queue non-empty but no machine busy")
		}
		if err := renderOneFrame(workers[busy]); err != nil {
			return nil, err
		}
	}

	if err := asm.Complete(); err != nil {
		return nil, err
	}
	res.Frames = asm.Frames()
	res.Makespan = now.Makespan()
	for f := cfg.StartFrame; f < cfg.EndFrame; f++ {
		res.Run.AddFrame(stats.FrameStats{
			Frame:    f,
			Elapsed:  frameWork[f],
			Rays:     frameRays[f],
			Rendered: frameRendered[f],
			Copied:   frameCopied[f],
		})
	}
	res.Run.Total = res.Makespan
	for _, w := range workers {
		res.Workers = append(res.Workers, stats.WorkerStats{
			Worker:     cfg.Machines[w.id].Name,
			TasksDone:  w.tasksDone,
			PixelsDone: w.pixelsDone,
			Busy:       now.BusyTime(w.id),
			Rays:       w.rays,
		})
	}
	sort.Slice(res.Workers, func(i, j int) bool { return res.Workers[i].Worker < res.Workers[j].Worker })
	if vos != nil {
		res.ObjSpace = vos.Snapshot()
	}
	if rec != nil {
		tl := rec.Snapshot()
		tl.Meta["scheme"] = cfg.Scheme.Name()
		tl.Meta["resolution"] = fmt.Sprintf("%dx%d", cfg.W, cfg.H)
		tl.Meta["frames"] = fmt.Sprintf("[%d,%d)", cfg.StartFrame, cfg.EndFrame)
		tl.Meta["clock"] = "virtual"
		tl.Sort()
		res.Timeline = tl
	}

	if cfg.Emit != nil {
		for i, img := range res.Frames {
			if err := cfg.Emit(cfg.StartFrame+i, img); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// RenderSingle runs the whole animation on one machine of the virtual
// NOW (the paper's single-processor baselines, columns (1)-(3) of
// Table 1: the fastest machine is used). Coherence is applied when
// cfg.Coherence is set.
func RenderSingle(cfg Config, machine cluster.Machine) (*Result, error) {
	cfg.Machines = []cluster.Machine{machine}
	// A single machine with the whole frame: sequence division
	// degenerates to one task covering everything.
	cfg.Scheme = partition.SequenceDivision{Adaptive: false}
	return RenderVirtual(cfg)
}
