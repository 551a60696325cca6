package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
)

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
// worker's clock now, so the master can estimate the clock offset from
// the RTT. A ping garbled in transit gets its bytes back as they came —
// the answer still proves the render loop is alive, and the master
// ignores a stamp it cannot parse.
func pongData(data []byte, now int64) []byte {
	var p pong
	if msg.Decode(data, &p.ping) != nil {
		return data
	}
	p.WorkerNs = now
	return msg.Encode(&p)
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

// drainTo drains the recorder into a timeline piggyback section
// (tracks deduplicated by name) and returns the recorder clock; with no
// recorder it drains nothing and returns 0. The events of the
// encode/send phases of a frame are drained by the next frame's result
// (or lost at task end) — a one-frame lag the merged timeline tolerates,
// not a correctness issue.
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
	return wt.rec.Now()
}

// workerHost is all that differs between the places a worker runs: how a
// message reaches the master (send), the clock a pong carries, where a
// task's engine spans go (tracks), the clock that stamps a rendered frame
// (render), and how its result ships (ship). connHost is a msg.Conn on
// the wall clock with its timeline piggyback and DFB sinks; vmachine is
// a machine of the virtual NOW, on the cost model's clock, the bus and
// the machine's track.
type workerHost interface {
	send(tag int, data []byte) error
	clock() int64
	tracks(tm taskMsg) (*timeline.Track, []*timeline.Track)
	render(s *frameStep, f int) (frameDoneMsg, error)
	ship(s *frameStep, fd frameDoneMsg, first bool) error
}

// worker is the slave side of the farm protocol, one state machine for
// every host (the paper's slave; anim.c's CSTATE_INITIAL and
// CSTATE_WORKING): idle until a task arrives, then busy rendering frames
// [next, end) one frame() at a time, where a truncate between frames may
// move end.
type worker struct {
	name string
	sc   *scene.Scene
	host workerHost
	// threads is a task's tile pool when its message leaves it at 0.
	threads int
	// ranges is what the worker keeps between tasks.
	ranges *rangeHolder
	// step is the task being rendered, nil while idle; next is the frame
	// to render next, end the one to stop before.
	step      *frameStep
	next, end int
}

func (w *worker) busy() bool { return w.step != nil }

// handle acts on one message from the master; it reports true for
// TagShutdown, after which the worker does nothing more.
func (w *worker) handle(m msg.Message) (bool, error) {
	switch m.Tag {
	case TagTask:
		return false, w.start(m.Data)
	case TagTruncate:
		return false, w.truncate(m.Data)
	case TagPing:
		// Answered between frames, a pong proves the render loop itself
		// is making progress, not merely that the link is up.
		return false, w.host.send(TagPong, pongData(m.Data, w.host.clock()))
	case TagShutdown:
		return true, nil
	}
	return false, fmt.Errorf("farm: worker %s: unexpected tag %d", w.name, m.Tag)
}

// start takes a task: the worker is busy from its first frame.
func (w *worker) start(data []byte) error {
	if w.busy() {
		return fmt.Errorf("farm: worker %s: task %d assigned mid-task", w.name, w.step.tm.Task.ID)
	}
	var tm taskMsg
	if err := msg.Decode(data, &tm); err != nil {
		return err
	}
	if tm.Threads == 0 {
		tm.Threads = w.threads
	}
	main, tiles := w.host.tracks(tm)
	step, err := newFrameStep(w.sc, tm, w.ranges, main, tiles)
	if err != nil {
		return err
	}
	w.step, w.next, w.end = step, tm.Task.StartFrame, tm.Task.EndFrame
	return nil
}

// truncate stops the running task at the requested frame, or where it
// already is if past it, and acknowledges where it stops. A truncate for
// any other task — one that already ended, or a duplicate — is
// acknowledged as it came: that task stopped at its natural end, and the
// master ignores an ack for a task it no longer waits on.
func (w *worker) truncate(data []byte) error {
	var e taskEnd
	if err := msg.Decode(data, &e); err != nil {
		return err
	}
	running := w.busy() && w.step.tm.Task.ID == e.Task
	if running {
		e.End = max(e.End, w.next)
		w.end = e.End
	}
	if err := w.host.send(TagTruncateAck, msg.Encode(&e)); err != nil {
		return err
	}
	if running && w.next >= w.end {
		return w.finish()
	}
	return nil
}

// frame renders the task's next frame and ships it; the last one ends
// the task. The first frame of a task is always a key-frame: every retry,
// steal, speculation or requeue arrives as a fresh task, so the
// assembler's (possibly stale) copy of the region is reseeded before any
// delta builds on it.
func (w *worker) frame() error {
	f := w.next
	fd, err := w.host.render(w.step, f)
	if err != nil {
		return err
	}
	if f+1 >= w.end {
		if err := w.shipOSStats(); err != nil {
			return err
		}
	}
	if err := w.host.ship(w.step, fd, f == w.step.tm.Task.StartFrame); err != nil {
		return err
	}
	w.next++
	if w.next >= w.end {
		return w.finish()
	}
	return nil
}

// finish reports the task done where it stopped and leaves the worker
// idle.
func (w *worker) finish() error {
	if err := w.shipOSStats(); err != nil {
		return err
	}
	id := w.step.tm.Task.ID
	w.step = nil
	return w.host.send(TagTaskDone, msg.Encode(&taskEnd{id, w.end}))
}

// shipOSStats sends an object-space task's counters, once: ahead of the
// result of the task's last frame — they are final by then, and on the
// ordered link they are in before the master can see the run complete —
// or, when a truncate ends the task between frames, ahead of its
// TagTaskDone.
func (w *worker) shipOSStats() error {
	s := w.step
	if s.osStats == nil || s.osShipped {
		return nil
	}
	s.osShipped = true
	st := objspace.StatsMsg(s.osStats.Snapshot())
	return w.host.send(TagOSStats, msg.Encode(&st))
}

// stopped is a TagBye's payload: the running task and the frame it stops
// at, so the master requeues the rest; (-1, 0) while idle.
func (w *worker) stopped() []byte {
	e := taskEnd{-1, 0}
	if w.busy() {
		e = taskEnd{w.step.tm.Task.ID, w.next}
	}
	return msg.Encode(&e)
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
	return runWorkerLoop(ctx, name, conn, sc, opts, new(rangeHolder))
}

// runWorkerLoop steps a worker over conn: receive (blocking while idle,
// draining while busy), hand the message to the worker, and render a
// frame once a busy worker's inbox is empty. ranges keeps the Range of
// the task being run beyond the task: frame division hands this worker
// block after block of the same frames. The master closing the link is
// a clean exit — the PVM-style shutdown a slave can observe mid-send as
// easily as mid-receive (e.g. a stale truncate ack racing the master's
// exit); a master-side failure is reported by the master.
func runWorkerLoop(ctx context.Context, name string, conn msg.Conn, sc *scene.Scene, opts WorkerOptions, ranges *rangeHolder) error {
	h := newConnHost(name, conn, opts)
	defer h.close()
	w := &worker{name: name, sc: sc, host: h, threads: opts.Threads, ranges: ranges}
	err := h.send(TagHello, msg.Encode(&hello{ProtocolVersion, name}))
	for err == nil {
		var m msg.Message
		var ok bool
		m, ok, err = h.recv(ctx, w.busy(), opts.MasterDeadline)
		switch {
		case err != nil && ctx.Err() != nil && !errors.Is(err, msg.ErrClosed):
			// Graceful departure between frames: the last frame already
			// shipped, so stopping here loses nothing.
			_ = h.send(TagBye, w.stopped())
			err = ctx.Err()
		case err == nil && !ok:
			err = w.frame()
		case err == nil:
			var down bool
			if down, err = w.handle(m); down {
				return nil
			}
		}
	}
	if errors.Is(err, msg.ErrClosed) {
		return nil
	}
	return err
}

// connHost hosts a worker on a msg.Conn: the wall clock, the timeline
// piggyback, and the compositor sinks a task may route its pixels to
// (their links persist across tasks, so a delta chain survives task
// boundaries on the same shard). A receive pump fills inbox, so a busy
// worker can drain its control messages between frames without blocking;
// done lets the pump go once the loop has returned.
type connHost struct {
	name  string
	conn  msg.Conn
	inbox chan received
	done  chan struct{}
	wt    *workerTimeline
	sinks *sinkLinks
}

// received is one Recv of the pump's; the last carries its error.
type received struct {
	m   msg.Message
	err error
}

func newConnHost(name string, conn msg.Conn, opts WorkerOptions) *connHost {
	h := &connHost{
		name: name, conn: conn,
		// Room for the control messages (pings, truncates) that arrive
		// while a frame renders, so the pump rarely waits on the worker.
		inbox: make(chan received, 64), done: make(chan struct{}),
		wt: &workerTimeline{name: name, rec: opts.Timeline}, sinks: newSinkLinks(name, opts.SinkDial),
	}
	if h.wt.rec != nil {
		h.wt.ensure(0)
	}
	go h.pump()
	return h
}

func (h *connHost) pump() {
	for err := error(nil); err == nil; {
		var m msg.Message
		m, err = h.conn.Recv()
		select {
		case h.inbox <- received{m, err}:
		case <-h.done:
			return
		}
	}
}

func (h *connHost) close() {
	h.sinks.close()
	close(h.done)
}

// recv is the conn loop's receive. A busy worker takes what has arrived,
// ok false once nothing has. An idle one blocks for the next message, the
// context's cancellation or d of silence (d <= 0: no deadline, a nil
// channel never fires), and the wait is its recv span, whose arg records
// what ended it.
func (h *connHost) recv(ctx context.Context, busy bool, d time.Duration) (msg.Message, bool, error) {
	if busy {
		if err := ctx.Err(); err != nil {
			return msg.Message{}, false, err
		}
		select {
		case r := <-h.inbox:
			return r.m, r.err == nil, r.err
		default:
			return msg.Message{}, false, nil
		}
	}
	var silent <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		silent = t.C
	}
	idle := h.wt.main.Begin()
	select {
	case r := <-h.inbox:
		if r.err == nil {
			h.wt.main.EndArg(timeline.OpRecv, -1, idle, int64(r.m.Tag))
		}
		return r.m, r.err == nil, r.err
	case <-ctx.Done():
		return msg.Message{}, false, ctx.Err()
	case <-silent:
		// A TCP half-open the worker would otherwise wait on forever.
		return msg.Message{}, false, fmt.Errorf("farm: master silent past deadline (%v)", d)
	}
}

func (h *connHost) send(tag int, data []byte) error {
	return h.conn.Send(msg.Message{Tag: tag, From: h.name, Data: data})
}

func (h *connHost) clock() int64 { return h.wt.rec.Now() }

func (h *connHost) tracks(tm taskMsg) (*timeline.Track, []*timeline.Track) {
	if h.wt.rec != nil || tm.WireFlags&capWireTimeline != 0 {
		threads := tm.Threads
		if threads <= 0 {
			threads = runtime.NumCPU()
		}
		h.wt.ensure(threads)
	}
	return h.wt.main, h.wt.tiles
}

func (h *connHost) render(s *frameStep, f int) (frameDoneMsg, error) {
	started := time.Now()
	span := h.wt.main.Begin()
	fd, _, err := s.render(f)
	if err != nil {
		return fd, err
	}
	fd.ElapsedNs = time.Since(started).Nanoseconds()
	h.wt.main.EndArg(timeline.OpFrame, f, span, int64(fd.Rendered))
	return fd, nil
}

// ship sends a result to the master or, when the task names sinks, the
// pixels to the sink owning the frame's shard and a small ack to the
// master. A DFB worker also re-keys on crossing a shard boundary (the
// next sink has no base), on a fresh or re-dialed sink link, and on a
// sink's TagNeedKey.
func (h *connHost) ship(s *frameStep, fd frameDoneMsg, first bool) error {
	tm, f := &s.tm, fd.Frame
	dfb := len(tm.Sinks) > 0
	if tm.WireFlags&capWireTimeline != 0 && !dfb {
		// Piggyback everything recorded so far onto this result: the
		// encode and send spans of frame f ship with frame f+1 (see
		// workerTimeline.drainTo). Under DFB the ack carries them.
		fd.TLNow = h.wt.drainTo(&fd.TLTracks, &fd.TLEvents)
	}
	var lk *sinkLink
	si := 0
	if dfb {
		shard := partition.ShardMap{Start: tm.JobStart, End: tm.JobEnd, N: len(tm.Sinks)}
		si = shard.Of(f)
		first = first || shard.Of(f-1) != si
		if lk, _ = h.sinks.get(tm.Sinks[si]); lk != nil && (lk.rekey || lk.takeNeedKey()) {
			first = true
		}
	}
	encStart := h.wt.main.Begin()
	data := s.encode(&fd, first)
	// The encode span's arg carries the message size shifted past the
	// payload encoding (arg>>2 = bytes, arg&3 = wire.Enc*), so timeline
	// consumers can see when the span codec fell back to raw.
	h.wt.main.EndArg(timeline.OpEncode, f, encStart, int64(len(data))<<2|int64(fd.Encoding&3))
	defer h.wt.main.End(timeline.OpSend, f, h.wt.main.Begin())
	if lk != nil {
		lk, data = h.sinks.push(lk, s, &fd, data)
	}
	if lk == nil {
		// Master-routed pixels: the only path without sinks, and the DFB
		// fallback when the sink is unreachable (the master then relays
		// them to the sink).
		return h.send(TagFrameDone, data)
	}
	ack := frameAckMsg{
		TaskID: fd.TaskID, Frame: f, Region: fd.Region,
		Kind: fd.Kind, Encoding: fd.Encoding, Sink: si, SinkBytes: len(data),
		Rendered: fd.Rendered, Copied: fd.Copied, Regs: fd.Regs,
		Rays: fd.Rays, ElapsedNs: fd.ElapsedNs,
	}
	if tm.WireFlags&capWireTimeline != 0 {
		ack.TLNow = h.wt.drainTo(&ack.TLTracks, &ack.TLEvents)
	}
	return h.send(TagFrameAck, msg.Encode(&ack))
}

// frameStep is the worker-side state of one task and the one place a
// farm frame is rendered and encoded: the coherence engine or the frames'
// geometry, the object-space counters, the task framebuffer and the
// result encoder. The framebuffer holds the task's region, not the frame:
// a plain task's own, or a coherent task's engine's, which each frame is
// rendered over in place. The worker drives it on every host, each host
// stamping its own clock between render and encode, so an option that
// reaches pixels on one driver reaches them on all.
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
	buf       *fb.Framebuffer // the region's pixels of the last frame
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
	s := &frameStep{tm: tm, main: main, tiles: tiles}
	if tm.OSShards >= 2 {
		s.osStats = &objspace.Stats{}
	}
	t := tm.Task
	if !tm.Coherence {
		s.buf = fb.NewRegion(t.Region)
		topts := trace.Options{SamplesPerPixel: tm.Samples, AAThreshold: tm.AAThreshold}
		var err error
		if s.geo, err = ranges.framesFor(sc, t.StartFrame, t.EndFrame, topts, tm.OSShards); err != nil {
			return nil, err
		}
		return s, nil
	}
	copts := coherence.Options{
		SamplesPerPixel: tm.Samples,
		AAThreshold:     tm.AAThreshold,
		Threads:         tm.Threads,
		ObjSpaceShards:  tm.OSShards,
		ObjSpaceStats:   s.osStats,
		TimelineTrack:   main,
		TileTracks:      tiles,
	}
	r, err := ranges.rangeFor(sc, t.StartFrame, t.EndFrame, copts)
	if err != nil {
		return nil, err
	}
	if s.eng, err = r.NewEngine(tm.W, tm.H, t.Region, copts); err != nil {
		return nil, err
	}
	s.geo, s.buf = r.Frames(), s.eng.Frame()
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
		rep, err := s.eng.Render(f)
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
	fd.Rays = trace.RenderTiles(s.buf, s.tm.W, s.tm.H, t.Region, s.tm.Threads, f, s.tiles, g.NewWorkers(s.osStats))
	if s.osStats != nil {
		s.main.Instant(timeline.OpForward, f, int64(s.osStats.RaysForwarded()-fwd0))
	}
	return fd, cluster.Work{Rays: fd.Rays.Total()}, nil
}

// workingSet is the bytes the step holds to render with: the frames, the
// engine and its Range, and a plain task's framebuffer (an engine's is
// the engine's).
func (s *frameStep) workingSet() int {
	n := s.geo.WorkingSet(s.eng)
	if s.eng == nil {
		n += len(s.buf.Pix)
	}
	return n
}

// encode seals fd's pixels for the wire. first forces a key-frame (see
// worker.frame and connHost.ship for when).
func (s *frameStep) encode(fd *frameDoneMsg, first bool) []byte {
	return s.enc.Encode(fd, s.buf, s.tm.WireFlags, s.spans, first)
}
