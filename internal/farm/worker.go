package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
)

// asyncConn wraps a msg.Conn with a receive pump so the worker can poll
// for control messages (truncation) between frames without blocking.
type asyncConn struct {
	msg.Conn
	inbox chan msg.Message
	errCh chan error
}

func newAsyncConn(c msg.Conn) *asyncConn {
	a := &asyncConn{Conn: c, inbox: make(chan msg.Message, 64), errCh: make(chan error, 1)}
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				a.errCh <- err
				close(a.inbox)
				return
			}
			a.inbox <- m
		}
	}()
	return a
}

// recv blocks for the next message or the context's cancellation.
func (a *asyncConn) recv(ctx context.Context) (msg.Message, error) {
	select {
	case m, ok := <-a.inbox:
		if !ok {
			return msg.Message{}, <-a.errCh
		}
		return m, nil
	case <-ctx.Done():
		return msg.Message{}, ctx.Err()
	}
}

// errMasterSilent reports a master that went quiet past the worker's
// deadline (a TCP half-open the worker would otherwise wait on forever).
var errMasterSilent = errors.New("farm: master silent past deadline")

// recvDeadline is recv with a silence deadline; d <= 0 means no deadline.
func (a *asyncConn) recvDeadline(ctx context.Context, d time.Duration) (msg.Message, error) {
	if d <= 0 {
		return a.recv(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m, ok := <-a.inbox:
		if !ok {
			return msg.Message{}, <-a.errCh
		}
		return m, nil
	case <-ctx.Done():
		return msg.Message{}, ctx.Err()
	case <-t.C:
		return msg.Message{}, fmt.Errorf("%w (%v)", errMasterSilent, d)
	}
}

// tryRecv returns the next message without blocking.
func (a *asyncConn) tryRecv() (msg.Message, bool, error) {
	select {
	case m, ok := <-a.inbox:
		if !ok {
			return msg.Message{}, false, <-a.errCh
		}
		return m, true, nil
	default:
		return msg.Message{}, false, nil
	}
}

// WorkerOptions tune the local side of a worker, independent of what the
// master sends.
type WorkerOptions struct {
	// Threads is the intra-frame tile-pool width used for tasks whose
	// assignment leaves the thread count at 0 (the master default).
	// 0 selects all cores; a task message's explicit Threads wins.
	Threads int
	// MasterDeadline, when > 0, makes an idle worker give up if the
	// master stays completely silent this long — the half-open-connection
	// case a dead TCP peer cannot signal. It must comfortably exceed the
	// master's heartbeat interval (pings count as traffic); a worker
	// mid-task is not subject to it.
	MasterDeadline time.Duration
	// SinkDial connects to a compositor sink address when a task names
	// sinks; nil defaults to msg.Dial (TCP). RenderLocal injects the
	// in-process registry's dialer here.
	SinkDial func(addr string) (msg.Conn, error)
	// Timeline, when non-nil, is the worker's local event recorder:
	// phase and tile spans land in it whether or not the master asks for
	// them with capWireTimeline (cmd/nowworker dumps it via -timeline).
	// When nil and a task sets the flag, the worker creates a private
	// recorder on first use just for shipping.
	Timeline *timeline.Recorder
}

// pongData builds the heartbeat answer: the ping re-stamped with the
// worker's recorder clock, so the master can estimate the clock offset
// from the RTT. A ping garbled in transit gets its bytes back as they
// came — the answer still proves the render loop is alive, and the
// master ignores a stamp it cannot parse.
func pongData(ping []byte, wt *workerTimeline) []byte {
	seq, masterNs, err := decodePair(ping)
	if err != nil {
		return ping
	}
	return encodePong(seq, int64(masterNs), wt.now())
}

// workerTimeline is the worker-side recorder state: the recorder (from
// options, or created lazily by the first capWireTimeline task), the
// worker's phase track and its tile-pool tracks. All methods are
// nil-receiver-safe mirrors of the timeline package's disabled path.
type workerTimeline struct {
	name  string
	rec   *timeline.Recorder
	main  *timeline.Track
	tiles []*timeline.Track
}

// ensure makes the recorder and tracks live (first use), growing the
// tile-track pool to threads entries.
func (wt *workerTimeline) ensure(threads int) {
	if wt.rec == nil {
		wt.rec = timeline.New(0)
	}
	if wt.main == nil {
		wt.main = wt.rec.Track(wt.name + "/main")
	}
	for len(wt.tiles) < threads {
		wt.tiles = append(wt.tiles, wt.rec.Track(fmt.Sprintf("%s/tile%02d", wt.name, len(wt.tiles))))
	}
}

// now returns the worker's timeline clock (0 with no recorder), the
// stamp pongs and shipped results carry.
func (wt *workerTimeline) now() int64 { return wt.rec.Now() }

// drainTo drains the recorder into a timeline piggyback section
// (tracks deduplicated by name) and returns the recorder clock. The
// events of the encode/send phases of a frame are drained by the next
// frame's result (or lost at task end) — a one-frame lag the merged
// timeline tolerates, not a correctness issue.
func (wt *workerTimeline) drainTo(tlTracks *[]string, tlEvents *[]wireEvent) int64 {
	if wt.rec == nil {
		return 0
	}
	for _, te := range wt.rec.TakeNew() {
		idx := -1
		for i, n := range *tlTracks {
			if n == te.Track {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(*tlTracks)
			*tlTracks = append(*tlTracks, te.Track)
		}
		for _, ev := range te.Events {
			*tlEvents = append(*tlEvents, wireEvent{Track: idx, Ev: ev})
		}
	}
	return wt.now()
}

// attach piggybacks the recorder's new events onto fd (master-routed
// results; under DFB the ack carries them instead — see attachAck).
func (wt *workerTimeline) attach(fd *frameDoneMsg) {
	if wt.rec == nil {
		return
	}
	fd.TLNow = wt.drainTo(&fd.TLTracks, &fd.TLEvents)
}

// attachAck piggybacks the recorder's new events onto a frame ack.
func (wt *workerTimeline) attachAck(a *frameAckMsg) {
	if wt.rec == nil {
		return
	}
	a.TLNow = wt.drainTo(&a.TLTracks, &a.TLEvents)
}

// RunWorkerWithOptions executes the slave side of the farm protocol on
// conn: say hello, then loop rendering assigned tasks until shutdown. The
// scene is provided by the caller (in-process workers share it;
// cmd/nowworker parses the SDL source the master ships first); opts tune
// the local side.
//
// The worker honours TagTruncate between frames: it stops its current
// task at the requested end (or wherever it already got to, if further)
// and acknowledges the actual stop frame so the master can reassign the
// remainder without duplication. When ctx is cancelled the worker
// finishes the frame it is rendering, sends a TagBye status message
// telling the master where it stopped (so the remainder of its task is
// requeued, not lost), and returns ctx's error. cmd/nowworker wires
// SIGINT/SIGTERM to this.
func RunWorkerWithOptions(ctx context.Context, name string, conn msg.Conn, sc *scene.Scene, opts WorkerOptions) error {
	// The loop's Range holder is made here and goes with the loop.
	err := runWorkerLoop(ctx, name, conn, sc, opts, new(rangeHolder))
	if errors.Is(err, msg.ErrClosed) {
		// The master closed the connection — the PVM-style shutdown a
		// slave can observe mid-send as easily as mid-receive (e.g. a
		// stale truncate ack racing the master's exit). A master-side
		// failure is reported by the master; the worker exits cleanly.
		return nil
	}
	return err
}

// runWorkerLoop is the worker's receive loop. ranges keeps the Range of
// the task being run beyond the task: frame division hands this worker
// block after block of the same frames.
func runWorkerLoop(ctx context.Context, name string, conn msg.Conn, sc *scene.Scene, opts WorkerOptions, ranges *rangeHolder) error {
	ac := newAsyncConn(conn)
	if err := ac.Send(msg.Message{Tag: TagHello, From: name, Data: encodeHello(name)}); err != nil {
		return err
	}
	wt := &workerTimeline{name: name, rec: opts.Timeline}
	if wt.rec != nil {
		wt.ensure(0)
	}
	// Sink links persist across tasks so a delta chain survives task
	// boundaries on the same shard.
	sinks := newSinkLinks(name, opts.SinkDial)
	defer sinks.close()
	for {
		idleStart := wt.main.Begin()
		m, err := ac.recvDeadline(ctx, opts.MasterDeadline)
		if err != nil {
			if errors.Is(err, msg.ErrClosed) {
				return nil
			}
			if ctx.Err() != nil {
				// Idle departure: nothing in flight to report.
				_ = ac.Send(msg.Message{Tag: TagBye, From: name, Data: encodePair(-1, 0)})
				return ctx.Err()
			}
			return err
		}
		// The idle wait for work is the recv span; its arg records what
		// ended it.
		wt.main.EndArg(timeline.OpRecv, -1, idleStart, int64(m.Tag))
		switch m.Tag {
		case TagShutdown:
			return nil
		case TagPing:
			// Heartbeat: answer so the master sees us alive, stamped with
			// our recorder clock.
			if err := ac.Send(msg.Message{Tag: TagPong, From: name, Data: pongData(m.Data, wt)}); err != nil {
				return err
			}
		case TagTask:
			tm, err := decodeTask(m.Data)
			if err != nil {
				return err
			}
			if tm.Threads == 0 {
				tm.Threads = opts.Threads
			}
			if wt.rec != nil || tm.WireFlags&capWireTimeline != 0 {
				threads := tm.Threads
				if threads <= 0 {
					threads = runtime.NumCPU()
				}
				wt.ensure(threads)
			}
			if err := runTask(ctx, name, ac, sc, tm, wt, sinks, ranges); err != nil {
				return err
			}
		case TagTruncate:
			// Truncate for a task we no longer run: already stopped at
			// its natural end; acknowledge with that end so the master
			// reconciles.
			id, end, err := decodePair(m.Data)
			if err != nil {
				return err
			}
			if err := ac.Send(msg.Message{Tag: TagTruncateAck, From: name, Data: encodePair(id, end)}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("farm: worker %s: unexpected tag %d", name, m.Tag)
		}
	}
}

// frameStep is the worker-side state of one task and the one place a
// farm frame is rendered and encoded: the coherence engine or the frames'
// geometry, the object-space counters, the task framebuffer and the
// result encoder. The real worker loop (runTask) and the virtual link
// drive the same step, each stamping its own clock between render and
// encode, so an option that reaches pixels on one driver reaches them on
// both.
type frameStep struct {
	tm taskMsg
	// geo is the worker's geometry for the task's frames: a plain task
	// renders straight off it, a coherent one through eng.
	eng *coherence.Engine
	geo *coherence.Frames
	// osStats accumulates an object-space task's forwarding traffic and
	// the resident sizes of the clusters it used; nil on the replicated
	// path. osShipped is set once they have gone to the master.
	osStats   *objspace.Stats
	osShipped bool
	buf       *fb.Framebuffer
	enc       frameEncoder
	// spans is the traced-pixel set of the frame render just produced
	// (nil without coherence) — what a delta encoding ships.
	spans []fb.Span
	main  *timeline.Track
	tiles []*timeline.Track
}

// rangeHolder is what a worker keeps between tasks: the geometry of the
// frames its last task rendered — each frame's tracer, or its
// object-space cluster — and, when that task was coherent, the
// coherence.Range built over it with the motion grid and the changed
// voxels. So the next block of the same frames finds all of it already
// built: a worker builds each frame once, not once per block. It holds
// one set of frames at most. A plain task whose frames it covers reuses
// it; a coherent task needs its exact Range. Anything else — another
// scene, other tracer options or shards, frames outside it — replaces it,
// and whoever owns the holder (a worker loop, a virtual machine) drops it
// with itself.
type rangeHolder struct {
	geo *coherence.Frames
	cur *coherence.Range // nil unless geo is cur's
}

// framesFor returns the held frames if they cover the task's, new ones
// (which it holds from now on) otherwise.
func (h *rangeHolder) framesFor(sc *scene.Scene, start, end int, topts trace.Options, shards int) (*coherence.Frames, error) {
	if h.geo != nil && h.geo.Covers(sc, start, end, topts, shards) {
		return h.geo, nil
	}
	// Let the old frames go first: the two need not be live together.
	h.geo, h.cur = nil, nil
	geo, err := coherence.NewFrames(sc, start, end, topts, shards)
	if err != nil {
		return nil, err
	}
	h.geo = geo
	return geo, nil
}

// rangeFor returns the held Range if it is the task's, a new one (which
// it holds from now on) otherwise.
func (h *rangeHolder) rangeFor(sc *scene.Scene, start, end int, opts coherence.Options) (*coherence.Range, error) {
	if h.cur != nil && h.cur.Matches(sc, start, end, opts) {
		return h.cur, nil
	}
	h.geo, h.cur = nil, nil
	r, err := coherence.NewRange(sc, start, end, opts)
	if err != nil {
		return nil, err
	}
	h.geo, h.cur = r.Frames(), r
	return r, nil
}

// newFrameStep builds the render state for a decoded task: a coherent
// task's engine is made from the Range in ranges, a plain task renders
// off the frames in ranges. main and tiles receive the engine's
// change-detect and tile spans (nil = none).
func newFrameStep(sc *scene.Scene, tm taskMsg, ranges *rangeHolder, main *timeline.Track, tiles []*timeline.Track) (*frameStep, error) {
	s := &frameStep{tm: tm, main: main, tiles: tiles, buf: fb.New(tm.W, tm.H)}
	if tm.OSShards >= 2 {
		s.osStats = &objspace.Stats{}
	}
	t := tm.Task
	if !tm.Coherence {
		topts := trace.Options{
			SamplesPerPixel: tm.Samples, GridRes: tm.GridRes,
			AAThreshold: tm.AAThreshold, AASamples: tm.AASamples,
		}
		var err error
		if s.geo, err = ranges.framesFor(sc, t.StartFrame, t.EndFrame, topts, tm.OSShards); err != nil {
			return nil, err
		}
		return s, nil
	}
	copts := coherence.Options{
		SamplesPerPixel:  tm.Samples,
		GridRes:          tm.GridRes,
		BlockGranularity: tm.BlockGran,
		AAThreshold:      tm.AAThreshold,
		AASamples:        tm.AASamples,
		Threads:          tm.Threads,
		ObjSpaceShards:   tm.OSShards,
		ObjSpaceStats:    s.osStats,
		TimelineTrack:    main,
		TileTracks:       tiles,
	}
	r, err := ranges.rangeFor(sc, t.StartFrame, t.EndFrame, copts)
	if err != nil {
		return nil, err
	}
	if s.eng, err = r.NewEngine(tm.W, tm.H, t.Region, copts); err != nil {
		return nil, err
	}
	s.geo = r.Frames()
	return s, nil
}

// render traces frame f of the task's region into the task framebuffer.
// It returns the result header — counters filled, pixels not yet
// encoded, ElapsedNs left for the caller's clock — and the work
// quantities the virtual NOW's cost model charges for the frame.
func (s *frameStep) render(f int) (frameDoneMsg, cluster.Work, error) {
	t := s.tm.Task
	fd := frameDoneMsg{TaskID: t.ID, Frame: f, Region: t.Region, Rendered: t.Region.Area()}
	s.spans = nil
	if s.eng != nil {
		rep, err := s.eng.RenderFrame(f, s.buf)
		if err != nil {
			return fd, cluster.Work{}, err
		}
		fd.Rendered = rep.Rendered
		fd.Copied = rep.Copied
		fd.Regs = rep.Registrations
		fd.Rays = rep.Rays
		s.spans = s.eng.LastSpans()
		w := cluster.Work{Rays: rep.Rays.Total(), Registrations: rep.Registrations, CopiedPixels: uint64(rep.Copied)}
		if rep.ChangeVoxels > 0 { // change detection scanned every pixel's run
			w.ScannedPixels = uint64(t.Region.Area())
		}
		return fd, w, nil
	}
	g, err := s.geo.At(f)
	if err != nil {
		return fd, cluster.Work{}, err
	}
	var fwd0 uint64
	if s.osStats != nil {
		fwd0 = s.osStats.RaysForwarded()
	}
	fd.Rays = trace.RenderTiles(s.buf, t.Region, s.tm.Threads, f, s.tiles, g.NewWorkers(s.osStats))
	if s.osStats != nil {
		s.main.Instant(timeline.OpForward, f, int64(s.osStats.RaysForwarded()-fwd0))
	}
	return fd, cluster.Work{Rays: fd.Rays.Total()}, nil
}

// encode seals fd's pixels for the wire. first forces a key-frame (see
// runTask for when).
func (s *frameStep) encode(fd *frameDoneMsg, first bool) []byte {
	return s.enc.Encode(fd, s.buf, s.tm.WireFlags, s.spans, first)
}

// takeOSStats returns an object-space task's sealed TagOSStats payload,
// once: nil on the replicated path and on every later call. A worker
// ships it ahead of the result of the task's last frame — the counters
// are final by then, and on the ordered link they are in before the
// master can see the run complete — or, when a truncate ends the task
// between frames, ahead of its TagTaskDone.
func (s *frameStep) takeOSStats() []byte {
	if s.osStats == nil || s.osShipped {
		return nil
	}
	s.osShipped = true
	return msg.Seal(objspace.EncodeStats(s.osStats.Snapshot()))
}

// runTask renders one task frame-by-frame, honouring truncation and
// graceful shutdown between frames.
func runTask(ctx context.Context, name string, ac *asyncConn, sc *scene.Scene, tm taskMsg, wt *workerTimeline, sinks *sinkLinks, ranges *rangeHolder) error {
	t := tm.Task
	end := t.EndFrame
	// When the task names sinks, pixels ship straight to the compositor
	// sink owning each frame's shard; the master only gets small acks.
	dfb := len(tm.Sinks) > 0
	shard := partition.ShardMap{Start: tm.JobStart, End: tm.JobEnd, N: len(tm.Sinks)}
	step, err := newFrameStep(sc, tm, ranges, wt.main, wt.tiles)
	if err != nil {
		return err
	}
	shipOSStats := func() error {
		data := step.takeOSStats()
		if data == nil {
			return nil
		}
		return ac.Send(msg.Message{Tag: TagOSStats, From: name, Data: data})
	}
	f := t.StartFrame
	for f < end {
		// Graceful shutdown: the in-flight frame was already shipped, so
		// stopping here loses nothing; TagBye tells the master to
		// requeue [f, end).
		if ctx.Err() != nil {
			if err := ac.Send(msg.Message{Tag: TagBye, From: name, Data: encodePair(t.ID, f)}); err != nil {
				return err
			}
			return ctx.Err()
		}
		// Drain control messages before starting the frame.
		for {
			cm, ok, err := ac.tryRecv()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			switch cm.Tag {
			case TagTruncate:
				id, newEnd, err := decodePair(cm.Data)
				if err != nil {
					return err
				}
				if id == t.ID {
					// Stop at newEnd, or where we already are if past it.
					stop := newEnd
					if f > stop {
						stop = f
					}
					end = stop
					if err := ac.Send(msg.Message{Tag: TagTruncateAck, From: name, Data: encodePair(id, stop)}); err != nil {
						return err
					}
				}
			case TagShutdown:
				return nil
			case TagPing:
				// Between-frames pong: proves the render loop itself is
				// making progress, not merely that the connection is up.
				if err := ac.Send(msg.Message{Tag: TagPong, From: name, Data: pongData(cm.Data, wt)}); err != nil {
					return err
				}
			default:
				return fmt.Errorf("farm: worker %s: unexpected tag %d mid-task", name, cm.Tag)
			}
		}
		if f >= end {
			break
		}

		started := time.Now()
		renderStart := wt.main.Begin()
		fd, _, err := step.render(f)
		if err != nil {
			return err
		}
		fd.ElapsedNs = time.Since(started).Nanoseconds()
		wt.main.EndArg(timeline.OpFrame, f, renderStart, int64(fd.Rendered))
		if f+1 >= end {
			if err := shipOSStats(); err != nil {
				return err
			}
		}
		// Piggyback everything recorded so far onto this result. Encode
		// and send spans of frame f therefore ship with frame f+1 (or not
		// at all for the last frame) — see workerTimeline.drainTo. Under
		// DFB the piggyback rides the master-bound ack, not the pixels.
		if tm.WireFlags&capWireTimeline != 0 && !dfb {
			wt.attach(&fd)
		}
		// The first frame of a task is always a key-frame: every retry,
		// steal, speculation or requeue arrives as a fresh task, so the
		// assembler's (possibly stale) copy of the region is reseeded
		// before any delta builds on it. A DFB worker also re-keys when
		// crossing a shard boundary (the next sink has no base), on a
		// fresh or re-dialed sink link, and on a sink's TagNeedKey.
		first := f == t.StartFrame
		var lk *sinkLink
		si := 0
		if dfb {
			si = shard.Of(f)
			if !first && shard.Of(f-1) != si {
				first = true
			}
			lk, _ = sinks.get(tm.Sinks[si])
			if lk != nil && (lk.rekey || lk.takeNeedKey()) {
				first = true
			}
		}
		encStart := wt.main.Begin()
		data := step.encode(&fd, first)
		// The encode span's arg carries the message size shifted past the
		// payload encoding (arg>>2 = bytes, arg&3 = wire.Enc*), so timeline
		// consumers can see when the span codec fell back to raw.
		wt.main.EndArg(timeline.OpEncode, f, encStart, int64(len(data))<<2|int64(fd.Encoding&3))
		sendStart := wt.main.Begin()
		if lk != nil {
			if err := lk.conn.Send(msg.Message{Tag: compositor.TagPix, From: name, Data: data}); err != nil {
				lk.dead.Store(true)
				// One redial: the sink may have restarted, in which case it
				// lost our delta base — re-encode as a key-frame.
				if lk, _ = sinks.get(tm.Sinks[si]); lk != nil {
					data = step.encode(&fd, true)
					if err := lk.conn.Send(msg.Message{Tag: compositor.TagPix, From: name, Data: data}); err != nil {
						lk.dead.Store(true)
						lk = nil
					}
				}
			}
		}
		if lk != nil {
			lk.rekey = false
			ack := frameAckMsg{
				TaskID: t.ID, Frame: f, Region: t.Region,
				Kind: fd.Kind, Encoding: fd.Encoding, Sink: si, SinkBytes: len(data),
				Rendered: fd.Rendered, Copied: fd.Copied, Regs: fd.Regs,
				Rays: fd.Rays, ElapsedNs: fd.ElapsedNs,
			}
			if tm.WireFlags&capWireTimeline != 0 {
				wt.attachAck(&ack)
			}
			if err := ac.Send(msg.Message{Tag: TagFrameAck, From: name, Data: encodeFrameAck(ack)}); err != nil {
				return err
			}
		} else {
			// Master-routed pixels: the only path without sinks, and the
			// DFB fallback when the sink is unreachable (the master then
			// relays them to the sink).
			if err := ac.Send(msg.Message{Tag: TagFrameDone, From: name, Data: data}); err != nil {
				return err
			}
		}
		wt.main.End(timeline.OpSend, f, sendStart)
		f++
	}
	if err := shipOSStats(); err != nil {
		return err
	}
	return ac.Send(msg.Message{Tag: TagTaskDone, From: name, Data: encodePair(t.ID, end)})
}
