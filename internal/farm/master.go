package farm

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"time"

	"nowrender/internal/anim"
	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	"nowrender/internal/wire"
)

// tagTick is the synthetic heartbeat tick a link hands the master: the
// hub link's ticker posts it into the hub's stream, the virtual link
// interleaves it on its clock. It never crosses a connection.
const tagTick = -0x7FFFFFFE

// frameRetries is the per-frame retry budget: a frame rendering that has
// been requeued this many times and is lost again is quarantined.
const frameRetries = 3

// workerRecord is the master's view of one worker.
type workerRecord struct {
	name    string
	task    partition.Task
	hasTask bool
	// doneThrough is the frame after the last FrameDone received.
	doneThrough int
	// truncatePending is set while a TagTruncate awaits its ack.
	truncatePending bool
	// finished, when a TaskDone raced ahead of a truncate, records the
	// worker's natural stop frame.
	finishedAt int
	// joined marks a worker whose hello was accepted; only joined workers
	// are ever sent a task. dead marks a worker whose connection failed
	// or that was retired or refused; its remaining frames were requeued
	// and it receives no further work.
	joined, dead bool
	// lastHeard is when (on the link's clock) any message last arrived
	// from this worker; lastProgress is when it last advanced its task
	// (frame result, task completion, truncate ack, or assignment).
	lastHeard, lastProgress time.Duration
	// pingPending limits heartbeat traffic to one unanswered ping, so a
	// worker grinding through a slow frame never has its pipe flooded
	// (a blocked ping send would stall the whole master).
	pingPending bool
	// pingSeqSent/pingSentNs identify the outstanding ping and the master
	// clock when it left, pairing each pong into a clock-offset RTT
	// sample (timeline recording only).
	pingSeqSent int
	pingSentNs  int64
	// cold is what the current task's first frame took to render and
	// steady/steadyN the total and count of its later frames: with
	// coherence the first is a full trace and the rest mostly copies, and
	// trySteal weighs one against the other.
	cold, steady time.Duration
	steadyN      int

	st stats.WorkerStats
}

func (w *workerRecord) remaining() int {
	if !w.hasTask {
		return 0
	}
	return w.task.EndFrame - w.doneThrough
}

// link is all the master loop sees of the world outside it. RunMaster
// supplies a msg.Hub on the wall clock; RenderVirtual the virtual NOW,
// whose clock only moves when a machine computes, a message crosses the
// bus or a heartbeat tick falls due.
type link interface {
	// Names lists the workers, sorted.
	Names() []string
	// Recv blocks for the next message from any worker.
	Recv() (msg.Message, error)
	Send(to string, m msg.Message) error
	// Detach severs a worker the master has retired.
	Detach(name string)
	// Now is the time elapsed on the link's clock since the run began.
	Now() time.Duration
}

// hubLink is the wall-clock link: a hub of worker connections.
type hubLink struct {
	*msg.Hub
	start time.Time
}

func (l hubLink) Now() time.Duration { return time.Since(l.start) }

// RunMaster drives the master side of the farm protocol over an
// attached hub until every frame is assembled, then shuts the workers
// down. The caller attaches one connection per worker before calling.
// Used by RenderLocal (goroutine workers) and `now render -mode master`.
//
// Failure handling (see DESIGN.md §8): a worker is retired — its
// undelivered frames requeued on the survivors — when its connection
// drops (TagDown), it departs gracefully (TagBye), it stays silent or
// holds a task without progress past the Liveness deadline, or it sends
// a malformed message — including a hello that is not ProtocolVersion.
// A frame rendering requeued more than frameRetries times is
// quarantined: the master renders the region locally instead of
// feeding it to another doomed worker. The run fails only when every
// worker is lost with frames outstanding.
func RunMaster(cfg Config, hub *msg.Hub) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Ctx != nil {
		// Cancelling the context closes the hub, which unblocks the
		// loop's blocking Recv; workers observe their closed connections
		// and exit. Hub.Close is idempotent, so the caller's own Close
		// afterwards is harmless.
		stop := context.AfterFunc(cfg.Ctx, func() { hub.Close() })
		defer stop()
	}

	// The ticker interleaves the liveness checks with slave traffic so
	// the event loop stays single-threaded. Posts are best-effort; a
	// dropped tick is followed by another.
	if every := cfg.tickEvery(); every > 0 {
		ticker := time.NewTicker(every)
		stopTick := make(chan struct{})
		defer func() { close(stopTick); ticker.Stop() }()
		go func() {
			for {
				select {
				case <-ticker.C:
					hub.Post(msg.Message{Tag: tagTick})
				case <-stopTick:
					return
				}
			}
		}()
	}

	// Distributed framebuffer: sink conns join the hub, interleaving
	// their confirmations with worker traffic in the single-threaded loop.
	var sinks *sinkControl
	if cfg.DFB.enabled() {
		shard := partition.ShardMap{Start: cfg.StartFrame, End: cfg.EndFrame, N: len(cfg.DFB.addrs)}
		sinks = newSinkControl(cfg.DFB, hub, cfg.W, cfg.H, shard)
	}
	return runMaster(cfg, hubLink{hub, time.Now()}, sinks)
}

// runMaster is the one master loop (§3): it steps the master through the
// link's events until every frame is in, and checks the master's
// invariants after every event — a violation ends the run with an error
// naming the event. cfg has had its defaults applied; sinks is nil
// unless the distributed framebuffer is on.
func runMaster(cfg Config, ln link, sinks *sinkControl) (*Result, error) {
	m, err := newMaster(cfg, ln, sinks)
	if err != nil {
		return nil, err
	}
	for n := 1; m.framesRemaining > 0; n++ {
		e, err := ln.Recv()
		if err := m.step(e, err); err != nil {
			return m.res, err
		}
		if err := m.check(); err != nil {
			return m.res, fmt.Errorf("farm: after event %d (tag %d from %q): %w", n, e.Tag, e.From, err)
		}
	}
	return m.finish()
}

// master is one run's master: what it knows of each worker, the work
// still to hand out, the frames still owed, and the run's tallies. Each
// event is one method, called by step, that acts on the world only
// through the link (and the sink control under DFB).
type master struct {
	cfg   Config
	ln    link
	sinks *sinkControl // nil unless the distributed framebuffer is on

	// roster holds the workers in name order. Every walk over them goes
	// through it, never the map, so equal candidates resolve to the first
	// name on every run.
	roster  []*workerRecord
	workers map[string]*workerRecord

	queue      []partition.Task
	nextTaskID int
	// regions is the scheme's distinct tiling regions — the recovery
	// paths (sink restart) requeue per region.
	regions []fb.Rect
	// waiting holds idle workers parked until a truncate they asked for
	// is answered.
	waiting  []*workerRecord
	pingSeq  int
	refusals []string // why workers were refused, for the nobody-left error

	asm             *wire.Assembly
	framesRemaining int
	// frameStats accumulates each frame's render statistics over the
	// regions that make it up.
	frameStats []stats.FrameStats
	frameFails map[int]int  // per-frame requeue counts (retry budget)
	speculated map[int]bool // task ids already hedged, either side

	// mt takes the master's own scheduling events (nil track = recording
	// off, every call one branch); tl the events workers ship.
	mt *timeline.Track
	tl shippedTimeline

	res *Result
}

// newMaster sets up a run: the scheme's initial tasks, the sinks dialled
// and initialised (before any worker gets a task, so the data plane is
// up when the first DFB frame ships), and every worker unjoined.
func newMaster(cfg Config, ln link, sinks *sinkControl) (*master, error) {
	names := ln.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("farm: no workers attached")
	}
	queue := initialQueue(cfg, len(names))
	if err := partition.ValidateTiling(queue, cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame); err != nil {
		return nil, err
	}
	if sinks != nil {
		if err := sinks.dialAll(); err != nil {
			return nil, err
		}
	}
	m := &master{
		cfg: cfg, ln: ln, sinks: sinks,
		workers: make(map[string]*workerRecord, len(names)),
		queue:   queue, nextTaskID: len(queue),
		asm:             wire.NewAssemblyRange(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame),
		framesRemaining: cfg.EndFrame - cfg.StartFrame,
		frameStats:      make([]stats.FrameStats, cfg.Scene.Frames),
		frameFails:      make(map[int]int),
		speculated:      make(map[int]bool),
		mt:              cfg.Timeline.Track("master/loop"),
		tl: shippedTimeline{
			rec:     cfg.Timeline,
			offsets: make(map[string]*timeline.OffsetEstimator),
			groups:  make(map[string]string),
		},
		res: &Result{},
	}
	for _, n := range names {
		w := &workerRecord{name: n, st: stats.WorkerStats{Worker: n}}
		m.roster = append(m.roster, w)
		m.workers[n] = w
	}
	seen := make(map[fb.Rect]bool)
	for _, t := range queue {
		if !seen[t.Region] {
			seen[t.Region] = true
			m.regions = append(m.regions, t.Region)
		}
	}
	return m, nil
}

// initialQueue is the scheme's tiling of [StartFrame, EndFrame). Under
// coherence the scheme tiles each camera-stationary sequence on its own
// (§3: "any camera movement logically separates one sequence from
// another"), and steals, requeues and speculation only ever narrow a
// task's frames, so no task crosses a cut. A window without a cut is one
// sequence and gets the scheme's tiling unchanged.
func initialQueue(cfg Config, workers int) []partition.Task {
	if !cfg.Coherence {
		return cfg.Scheme.InitialTasks(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame, workers)
	}
	var queue []partition.Task
	for _, sq := range anim.SplitSequences(cfg.Scene) {
		start, end := max(sq.Start, cfg.StartFrame), min(sq.End, cfg.EndFrame)
		if start >= end {
			continue
		}
		for _, t := range cfg.Scheme.InitialTasks(cfg.W, cfg.H, start, end, workers) {
			t.ID = len(queue)
			queue = append(queue, t)
		}
	}
	return queue
}

// step applies one event: a message from a worker or a sink, a heartbeat
// tick, or the link's failure, which ends the run.
func (m *master) step(e msg.Message, err error) error {
	if err != nil {
		if cerr := m.cfg.cancelled(); cerr != nil {
			return cerr
		}
		return err
	}
	if e.Tag == tagTick {
		return m.onTick()
	}
	if m.sinks != nil {
		if si, stale, ok := m.sinks.index(e.From); ok {
			return m.onSink(si, stale, e)
		}
	}
	w, ok := m.workers[e.From]
	if !ok {
		return fmt.Errorf("farm: message from unknown worker %q", e.From)
	}
	w.lastHeard = m.ln.Now()
	w.pingPending = false
	switch {
	case e.Tag == msg.TagDown || e.Tag == TagBye:
		// A PVM-style host failure, or a graceful departure: the worker
		// finished its in-flight frame — whose FrameDone preceded the bye
		// on the ordered connection — and closes its connection next, so
		// the later TagDown finds it retired already.
		return m.retire(w)
	case e.Tag == TagHello:
		return m.onHello(w, e.Data)
	case !w.joined:
		return m.refuse(w, fmt.Sprintf("tag %d before hello", e.Tag))
	}
	switch e.Tag {
	case TagFrameDone:
		return m.onFrameDone(w, e.Data)
	case TagFrameAck:
		return m.onFrameAck(w, e.Data)
	case TagOSStats:
		return m.onOSStats(w, e.Data)
	case TagTaskDone:
		return m.onTaskDone(w, e.Data)
	case TagTruncateAck:
		return m.onTruncateAck(w, e.Data)
	case TagPong:
		m.onPong(w, e.Data)
		return nil
	}
	return m.malformed(w) // unknown tag
}

// onTick is the heartbeat. It retires a worker silent past the Liveness
// deadline — an unjoined one counts as silent since t=0, so a worker
// whose hello never arrives is given up on rather than awaited — or one
// holding a task without progress past the same deadline, and pings
// every other joined worker that owes no pong. Links tick only with
// Liveness set (Config.tickEvery).
func (m *master) onTick() error {
	now, d := m.ln.Now(), m.cfg.Liveness
	for _, w := range m.roster {
		if w.dead {
			continue
		}
		var err error
		switch {
		case now-w.lastHeard > d:
			m.res.Faults.HeartbeatTimeouts++
			err = m.retire(w)
		case w.hasTask && now-w.lastProgress > d:
			m.res.Faults.StallTimeouts++
			err = m.retire(w)
		case w.joined && !w.pingPending:
			m.pingSeq++
			w.pingPending = true
			m.res.Faults.PingsSent++
			// Stamp the master clock into the ping (0 with recording
			// off); the pong pairs it into an RTT offset sample.
			w.pingSeqSent, w.pingSentNs = m.pingSeq, m.tl.rec.Now()
			m.mt.Instant(timeline.OpPing, -1, int64(m.pingSeq))
			_ = m.ln.Send(w.name, msg.Message{Tag: TagPing, Data: msg.Encode(&ping{m.pingSeq, w.pingSentNs})})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// onHello joins a worker and gives it work. A hello that is not this
// build's, or a second one, gets the worker refused; a hello from a
// worker already given up on is ignored.
func (m *master) onHello(w *workerRecord, data []byte) error {
	if w.dead {
		return nil
	}
	if w.joined {
		return m.refuse(w, "second hello")
	}
	var h hello
	if err := msg.Decode(data, &h); err != nil {
		return m.refuse(w, fmt.Sprintf("%v; this master speaks protocol version %d", err, ProtocolVersion))
	}
	w.joined = true
	return m.giveWork(w)
}

// onFrameDone takes one frame result's pixels: into the assembly, whose
// merge is the message's last use, so its bytes go back to the pool — or,
// under the distributed framebuffer, from a worker that could not reach
// its sink, on to the owning sink, whose confirmation marks the
// delivery. Either way the worker advances past the frame and is
// credited with it, unless the pixels were a duplicate or a delta whose
// base was lost.
func (m *master) onFrameDone(w *workerRecord, data []byte) error {
	fd, err := wire.DecodeFrameDone(data)
	if err != nil {
		return m.malformed(w)
	}
	defer fd.Release()
	m.ingress(len(data))
	if m.sinks == nil {
		// Under DFB the raw-pixel accounting comes from the sink's
		// confirmation, once per applied result.
		m.res.Wire.RawBytes += uint64(fd.Region.Area() * 3)
	}
	m.res.Wire.CountEncoding(fd.Encoding == encSpan, uint64(len(data)))
	m.mt.Instant(timeline.OpResult, fd.Frame, int64(len(data)))
	m.tl.add(w.name, fd.TLNow, fd.TLTracks, fd.TLEvents)
	if m.sinks != nil && (fd.Frame < m.cfg.StartFrame || fd.Frame >= m.cfg.EndFrame) {
		return m.malformed(w)
	}
	m.countKind(fd.Kind)
	dup := false
	switch {
	case m.sinks != nil:
		m.sinks.relay(w.name, fd.Frame, data)
		m.await(fd.Frame, fd.Region, w)
	case fd.Kind == frameDelta:
		_, dup, err = m.asm.DeliverSpans(fd.Frame, fd.Region, fd.Spans, fd.Pix, m.ln.Now())
		if err == nil {
			m.mt.Instant(timeline.OpDeltaApply, fd.Frame, int64(len(fd.Spans)))
		}
		msg.PutBytes(data)
	default:
		_, dup, err = m.asm.Deliver(fd.Frame, fd.Region, fd.Pix, m.ln.Now())
		msg.PutBytes(data)
	}
	if err != nil && !errors.Is(err, wire.ErrDeltaBase) {
		return m.malformed(w)
	}
	w.lastProgress = w.lastHeard
	w.doneThrough = fd.Frame + 1
	switch {
	case err != nil:
		// The delta's base result was lost in transit: the sender is
		// honest, so this is a drop, not a protocol violation. The frame
		// stays undelivered and is re-rendered by requeueGaps when the
		// task completes — exactly like the lost base itself.
		m.mt.Instant(timeline.OpBaseMiss, fd.Frame, 0)
		m.res.Wire.AddBaseMiss(w.name)
		return nil
	case dup:
		// A speculative or retried copy of a region that already
		// landed; the pixels are identical by construction.
		m.res.Faults.DuplicatesDropped++
		return nil
	}
	m.credit(w, fd.Frame, fd.Rendered, fd.Copied, fd.Rays, fd.ElapsedNs)
	w.st.PixelsDone += fd.Region.Area()
	if m.sinks != nil {
		return nil
	}
	return m.countDown(fd.Frame)
}

// onFrameAck takes the control half of a DFB frame result: the pixels
// went straight to a compositor sink, and this small message carries the
// frame's statistics and timeline piggyback. It advances the worker but
// does not mark the frame delivered — only the sink's confirmation does,
// so a result lost between worker and sink is still requeued.
func (m *master) onFrameAck(w *workerRecord, data []byte) error {
	var a frameAckMsg
	if msg.Decode(data, &a) != nil || m.sinks == nil || a.Frame < m.cfg.StartFrame || a.Frame >= m.cfg.EndFrame {
		return m.malformed(w)
	}
	m.ingress(len(data))
	m.res.Wire.FramesAcked++
	m.countKind(a.Kind)
	// The payload bytes crossed the worker→sink link, so charge the
	// per-codec byte counter with SinkBytes, not the ack size.
	m.res.Wire.CountEncoding(a.Encoding == encSpan, uint64(a.SinkBytes))
	m.mt.Instant(timeline.OpAck, a.Frame, int64(a.SinkBytes))
	m.tl.add(w.name, a.TLNow, a.TLTracks, a.TLEvents)
	w.lastProgress = w.lastHeard
	w.doneThrough = a.Frame + 1
	if !m.asm.Delivered(a.Frame, a.Region) {
		m.await(a.Frame, a.Region, w)
	}
	// PixelsDone is credited at TagDelivered (the sink's confirm), not
	// here — see onDelivered for why.
	m.credit(w, a.Frame, a.Rendered, a.Copied, a.Rays, a.ElapsedNs)
	return nil
}

// onOSStats merges a task's object-space counters, sent ahead of its last
// frame result. Stale copies from reassigned tasks still describe
// forwarding work that really happened, so they merge unconditionally.
func (m *master) onOSStats(w *workerRecord, data []byte) error {
	var os objspace.StatsMsg
	if msg.Decode(data, &os) != nil {
		return m.malformed(w)
	}
	m.res.BytesTransferred += int64(len(data))
	m.res.ObjSpace.Merge(stats.ObjSpaceStats(os))
	w.lastProgress = w.lastHeard
	return nil
}

// onTaskDone ends a worker's task at the frame it stopped before,
// requeueing whatever of its range never arrived.
func (m *master) onTaskDone(w *workerRecord, data []byte) error {
	var e taskEnd
	if msg.Decode(data, &e) != nil {
		return m.malformed(w)
	}
	id, end := e.Task, e.End
	if w.dead || !w.hasTask || w.task.ID != id {
		return nil // stale completion for a reassigned task
	}
	w.lastProgress = w.lastHeard
	w.finishedAt = end
	m.mt.Instant(timeline.OpTaskDone, end, int64(id))
	// The worker stopped at end; any result that went missing in transit
	// inside its range must be re-rendered, or the run would wait for
	// ever on pixels nobody is producing.
	m.requeueGaps(w.task.Region, w.task.StartFrame, min(end, w.task.EndFrame))
	var err error
	if w.truncatePending {
		// The ack was lost (ordered connection: it cannot merely be
		// late); reconcile from the completion instead.
		err = m.reconcileTruncate(w, end)
	} else {
		err = m.release(w)
	}
	if err != nil {
		return err
	}
	return m.dispatchQueue()
}

// onTruncateAck learns where a truncated worker will stop.
func (m *master) onTruncateAck(w *workerRecord, data []byte) error {
	var e taskEnd
	if msg.Decode(data, &e) != nil {
		return m.malformed(w)
	}
	if w.dead || !w.hasTask || w.task.ID != e.Task {
		return nil // stale ack for a finished task
	}
	w.lastProgress = w.lastHeard
	if !w.truncatePending {
		return nil // already reconciled via TaskDone
	}
	return m.reconcileTruncate(w, e.End)
}

// onPong counts a heartbeat answer. The worker stamped its recorder clock
// into it (0 with no recorder); paired with the send time of the
// outstanding ping it is an RTT clock-offset sample.
func (m *master) onPong(w *workerRecord, data []byte) {
	m.res.Faults.PongsReceived++
	if m.tl.rec == nil {
		return
	}
	var p pong
	if msg.Decode(data, &p) == nil && p.WorkerNs != 0 && p.Seq == w.pingSeqSent {
		m.tl.offset(w.name).AddRTT(w.pingSentNs, m.tl.rec.Now(), p.WorkerNs)
	}
}

// onSink processes one message from a compositor sink connection.
// Messages from a replaced connection carry a stale generation and are
// dropped; the shard reset already requeued their frames.
func (m *master) onSink(si int, stale bool, e msg.Message) error {
	switch e.Tag {
	case msg.TagDown:
		if stale {
			return nil // the replaced conn's pump noticed our Detach
		}
		return m.sinkLost(si)
	case compositor.TagDelivered:
		return m.onDelivered(si, e.Data)
	case compositor.TagMiss:
		return m.onMiss(si, e.Data)
	}
	return nil
}

// onDelivered takes a sink's confirmation that it assembled one result.
func (m *master) onDelivered(si int, data []byte) error {
	var d compositor.Delivered
	if msg.Decode(data, &d) != nil || d.Gen != m.sinks.gens[si] {
		return nil
	}
	// Per-hop accounting: WireBytes totals result-path bytes on every
	// wire — the confirmation into the master plus the pixel payload the
	// sink ingested — so master-routed and DFB runs stay comparable
	// (master-routed: WireBytes == MasterIngressBytes).
	m.ingress(len(data))
	m.res.Wire.WireBytes += uint64(d.WireBytes)
	m.res.Wire.SinkIngressBytes += uint64(d.WireBytes)
	m.res.Wire.RawBytes += uint64(d.RawBytes)
	m.sinks.clearPending(d.Frame, d.Region)
	complete, dup, err := m.asm.DeliverMeta(d.Frame, d.Region, m.ln.Now())
	if err != nil {
		return nil // geometry the tiling never produced; requeues recover
	}
	if dup {
		m.res.Faults.DuplicatesDropped++
		return nil
	}
	// Pixel credit happens here, on the sink's authoritative
	// confirmation, not on the worker's stats ack: the run ends the
	// moment the last region is confirmed, and the matching ack can still
	// be in flight — crediting acks would undercount. Summing per-worker
	// pixels therefore yields exactly frames x w x h.
	if w := m.workers[d.Worker]; w != nil {
		w.st.PixelsDone += d.Region.Area()
	}
	if complete {
		m.mt.Instant(timeline.OpSinkDeliver, d.Frame, int64(d.RawBytes))
	}
	return m.countDown(d.Frame)
}

// onMiss takes a sink's report that a result could not be applied.
func (m *master) onMiss(si int, data []byte) error {
	var mm compositor.Miss
	if msg.Decode(data, &mm) != nil || mm.Gen != m.sinks.gens[si] {
		return nil
	}
	m.ingress(len(data))
	m.sinks.clearPending(mm.Frame, mm.Region)
	if mm.Reason == compositor.MissBase {
		m.res.Wire.AddBaseMiss(mm.Worker)
		m.mt.Instant(timeline.OpBaseMiss, mm.Frame, 0)
	} else {
		m.res.Faults.MalformedMessages++
	}
	// If nothing active will re-render the missed result, requeue it now
	// — the owning task may have completed while the miss was in flight,
	// its completion pass skipping the then-pending frame.
	if m.asm.Delivered(mm.Frame, mm.Region) || m.covered(mm.Frame, mm.Region) {
		return nil
	}
	m.requeue(mm.Region, mm.Frame, mm.Frame+1)
	return m.dispatchQueue()
}

// sinkLost recovers from a dead sink connection: re-dial within the
// redial budget, then reset every non-complete frame of its shard and
// requeue them — whatever partial assembly or in-flight result the sink
// held is gone. Workers mid-task keep rendering into the restarted sink:
// their next delta base-misses, and the NeedKey handshake plus the
// requeues (which arrive as fresh tasks, hence key-frames) re-seed the
// shard.
func (m *master) sinkLost(si int) error {
	// The last dial's error, if any dial was tried, is the run's.
	err := fmt.Errorf("farm: sink %d (%s) lost with no redial budget", si, m.cfg.DFB.addrs[si])
	for err != nil {
		if m.sinks.redialsLeft[si] <= 0 {
			return err
		}
		m.sinks.redialsLeft[si]--
		err = m.sinks.dial(si)
	}
	m.sinks.clearShard(si)
	s0, s1 := m.sinks.shard.Shard(si)
	for f := s0; f < s1; f++ {
		if !m.asm.FrameComplete(f) {
			m.asm.ResetFrame(f)
		}
	}
	for _, r := range m.regions {
		m.requeueGaps(r, s0, s1)
	}
	return m.dispatchQueue()
}

// retire removes a worker from the run — failure (TagDown), graceful
// departure (TagBye), deadline expiry or protocol violation, before its
// hello as well as after — requeueing its undelivered frames and
// re-engaging parked thieves.
func (m *master) retire(w *workerRecord) error {
	if w.dead {
		return nil
	}
	w.dead = true
	m.res.Faults.WorkersLost++
	m.mt.Instant(timeline.OpRetire, -1, int64(w.task.ID))
	m.ln.Detach(w.name)
	if m.sinks != nil {
		// Results this worker acked but no sink confirmed may have died
		// with it; forget them so requeueGaps re-renders them.
		m.sinks.clearWorker(w.name)
	}
	if i := slices.Index(m.waiting, w); i >= 0 {
		m.waiting = slices.Delete(m.waiting, i, i+1)
	}
	orphaned := false // a thief is parked on this worker's truncate
	if w.hasTask {
		if err := m.chargeRetry(w.task); err != nil {
			return err
		}
		m.requeueGaps(w.task.Region, w.task.StartFrame, w.task.EndFrame)
		w.hasTask = false
		// A truncate pending against this worker will never be
		// acknowledged; the full remainder was requeued instead.
		if w.truncatePending {
			w.truncatePending = false
			m.res.Subdivisions--
			orphaned = true
		}
	}
	if m.framesRemaining > 0 && !slices.ContainsFunc(m.roster, func(o *workerRecord) bool { return !o.dead }) {
		refused := ""
		if len(m.refusals) > 0 {
			refused = " (refused: " + strings.Join(m.refusals, "; ") + ")"
		}
		return fmt.Errorf("farm: all workers lost with %d frames unfinished%s", m.framesRemaining, refused)
	}
	// Release a parked thief whose truncate will never be answered, or
	// that can take the requeued frames; it starts over — queue, steal,
	// speculate — or idles unparked.
	if len(m.waiting) > 0 && (orphaned || len(m.queue) > 0) {
		if err := m.giveWork(m.popThief()); err != nil {
			return err
		}
	}
	return m.dispatchQueue()
}

// chargeRetry debits one retry from the first undelivered frame of a lost
// worker's task — the one in progress when it was lost. Over budget, the
// master renders it locally (quarantine), so one poisonous frame cannot
// consume the whole farm.
func (m *master) chargeRetry(t partition.Task) error {
	for f := t.StartFrame; f < t.EndFrame; f++ {
		if m.asm.Delivered(f, t.Region) {
			continue
		}
		m.frameFails[f]++
		if m.frameFails[f] > frameRetries {
			return m.renderQuarantined(f, t.Region)
		}
		return nil
	}
	return nil
}

// malformed absorbs an undecodable or protocol-violating message by
// retiring its sender: a worker that garbles one message cannot be
// trusted with the next, but it must not take the run down with it.
// Garbage still arriving from a worker already retired is ignored.
func (m *master) malformed(w *workerRecord) error {
	if w.dead {
		return nil
	}
	m.res.Faults.MalformedMessages++
	return m.retire(w)
}

// refuse retires a worker that broke the handshake — a hello that is not
// ProtocolVersion, a second hello, anything else before its hello — and
// says so loudly: unlike a message garbled in transit, this is a
// deployment mistake (a stale binary) somebody has to fix.
func (m *master) refuse(w *workerRecord, reason string) error {
	if w.dead {
		return nil
	}
	log.Printf("farm: refusing worker %s: %s", w.name, reason)
	m.refusals = append(m.refusals, w.name+": "+reason)
	return m.malformed(w)
}

// giveWork hands the next queued task to an idle worker, then tries a
// steal, then a speculative re-issue; with none the worker idles.
func (m *master) giveWork(w *workerRecord) error {
	if w.dead {
		return nil
	}
	if len(m.queue) > 0 {
		t := m.queue[0]
		m.queue = m.queue[1:]
		return m.sendTask(w, t)
	}
	if stole, err := m.trySteal(w); stole || err != nil {
		return err
	}
	return m.trySpeculate(w)
}

// release ends a worker's task and, while frames are owed, gives it the
// next piece of work.
func (m *master) release(w *workerRecord) error {
	w.hasTask = false
	w.st.TasksDone++
	if m.framesRemaining > 0 {
		return m.giveWork(w)
	}
	return nil
}

// dispatchQueue re-engages idle, alive, unparked workers after tasks were
// requeued (e.g. recovered from a dead worker).
func (m *master) dispatchQueue() error {
	for _, w := range m.roster {
		if len(m.queue) == 0 {
			return nil
		}
		if w.dead || w.hasTask || !w.joined || slices.Contains(m.waiting, w) {
			continue
		}
		if err := m.giveWork(w); err != nil {
			return err
		}
	}
	return nil
}

// popThief takes the longest-parked thief off the waiting list, or nil.
func (m *master) popThief() *workerRecord {
	if len(m.waiting) == 0 {
		return nil
	}
	thief := m.waiting[0]
	m.waiting = m.waiting[1:]
	return thief
}

// busiest is the worker other than thief with the most unfinished frames
// that can be asked to share them: alive, holding a task, owing no
// truncate ack. unhedged also passes over tasks already speculated on
// and tasks with nothing left.
func (m *master) busiest(thief *workerRecord, unhedged bool) *workerRecord {
	var victim *workerRecord
	for _, w := range m.roster {
		if w == thief || !w.hasTask || w.truncatePending || w.dead {
			continue
		}
		if unhedged && (m.speculated[w.task.ID] || w.remaining() < 1) {
			continue
		}
		if victim == nil || w.remaining() > victim.remaining() {
			victim = w
		}
	}
	return victim
}

// trySteal picks the victim with the most unfinished frames and asks it
// to stop early; the thief is parked until the ack.
func (m *master) trySteal(thief *workerRecord) (bool, error) {
	victim := m.busiest(thief, false)
	if victim == nil {
		return false, nil
	}
	// The victim is rendering doneThrough; the scheme decides whether and
	// where to split the frames after it (an adaptive one gives away the
	// second half of two or more; static and hybrid never).
	rendering := victim.doneThrough // frame in progress (or next)
	unstarted := victim.task
	unstarted.StartFrame = rendering + 1
	keep, _, ok := m.cfg.Scheme.Subdivide(unstarted)
	if !ok {
		return false, nil
	}
	// A stolen range starts a new coherence engine, whose first frame is
	// a full trace. Left alone the victim needs (1 + keep + give) steady
	// frames for the one in progress and both halves; the thief needs one
	// cold frame and give - 1 steady ones, so the steal shortens the run
	// only if cold < (keep + 2) steady. Without a sample of each, steal.
	if m.cfg.Coherence && victim.cold > 0 && victim.steadyN > 0 {
		steady := victim.steady / time.Duration(victim.steadyN)
		if victim.cold >= time.Duration(keep.Frames()+2)*steady {
			return false, nil
		}
	}
	victim.truncatePending = true
	m.waiting = append(m.waiting, thief)
	m.res.Subdivisions++
	m.mt.Instant(timeline.OpSteal, rendering, int64(victim.task.ID))
	// A victim that crashed meanwhile is retired by its TagDown, which
	// requeues its frames and releases the parked thief.
	return true, m.send(victim, TagTruncate, msg.Encode(&taskEnd{victim.task.ID, keep.EndFrame}))
}

// trySpeculate re-issues the slowest in-flight task's remaining frames to
// an idle worker — the straggler hedge for the end of the run, when the
// queue is dry and nothing is big enough to steal. Whichever copy
// delivers a (frame, region) first wins; the duplicate is dropped by the
// assembly.
func (m *master) trySpeculate(thief *workerRecord) error {
	if !m.cfg.Speculate {
		return nil
	}
	victim := m.busiest(thief, true)
	if victim == nil {
		return nil
	}
	spec := m.newTask(victim.task.Region, victim.doneThrough, victim.task.EndFrame)
	m.speculated[victim.task.ID] = true
	m.speculated[spec.ID] = true // no speculation chains
	m.res.Faults.SpeculativeTasks++
	m.mt.Instant(timeline.OpSpeculate, spec.StartFrame, int64(spec.ID))
	return m.sendTask(thief, spec)
}

// reconcileTruncate finishes the truncation handshake once the worker's
// stop frame is known — from its ack, or from a TaskDone that arrived
// while the ack was lost in transit (the connection is ordered, so a
// TaskDone with the ack still pending means the ack is gone, not late).
func (m *master) reconcileTruncate(w *workerRecord, stop int) error {
	w.truncatePending = false
	stolenStart := stop
	if w.finishedAt >= 0 && w.finishedAt > stolenStart {
		stolenStart = w.finishedAt
	}
	region, stolenEnd := w.task.Region, w.task.EndFrame
	w.task.EndFrame = stolenStart
	if w.finishedAt >= 0 {
		// Task already over; release the worker.
		if err := m.release(w); err != nil {
			return err
		}
	}
	if stolenStart >= stolenEnd {
		// Nothing was left to steal; let the thief try again.
		if thief := m.popThief(); thief != nil {
			return m.giveWork(thief)
		}
		return nil
	}
	// Hand the stolen range to a waiting thief (or re-queue).
	stolen := m.newTask(region, stolenStart, stolenEnd)
	if thief := m.popThief(); thief != nil {
		return m.sendTask(thief, stolen)
	}
	m.queue = append(m.queue, stolen)
	return nil
}

// taskFor is the assignment message for a task: the task plus every
// render option of the run, so the frame step at the other end of the
// link — and the quarantine render at this end — see one answer.
func (m *master) taskFor(t partition.Task) taskMsg {
	cfg := &m.cfg
	return taskMsg{
		Task: t, W: cfg.W, H: cfg.H,
		Coherence: cfg.Coherence, Samples: cfg.Samples, AAThreshold: cfg.AAThreshold,
		Threads: cfg.Threads, WireFlags: cfg.wireFlags(), OSShards: cfg.ObjSpaceShards,
	}
}

// sendTask assigns a task to an idle worker.
func (m *master) sendTask(w *workerRecord, t partition.Task) error {
	m.mt.Instant(timeline.OpDispatch, t.StartFrame, int64(t.ID))
	tm := m.taskFor(t)
	if m.sinks != nil {
		tm.JobStart, tm.JobEnd = m.cfg.StartFrame, m.cfg.EndFrame
		tm.Sinks = m.cfg.DFB.addrs
	}
	data := msg.Encode(&tm)
	m.res.BytesTransferred += int64(len(data))
	m.res.TasksExecuted++
	w.task = t
	w.hasTask = true
	w.doneThrough = t.StartFrame
	w.truncatePending = false
	w.finishedAt = -1
	w.cold, w.steady, w.steadyN = 0, 0, 0
	w.lastProgress = m.ln.Now()
	return m.send(w, TagTask, data)
}

// send delivers a control message to a worker. A closed connection is
// not the run's failure: the worker's TagDown follows, and retiring it
// recovers whatever the message was about.
func (m *master) send(w *workerRecord, tag int, data []byte) error {
	if err := m.ln.Send(w.name, msg.Message{Tag: tag, Data: data}); err != nil && !errors.Is(err, msg.ErrClosed) {
		return err
	}
	return nil
}

// renderQuarantined renders one frame region on the master itself — the
// escape hatch for a frame that keeps killing workers — through the
// workers' own frame step as a one-frame plain task: the plain tracer is
// pixel-identical to every farm mode (the repo's core invariant), so
// quarantined frames are indistinguishable in the output.
func (m *master) renderQuarantined(f int, region fb.Rect) error {
	tm := m.taskFor(partition.Task{ID: -1, Region: region, StartFrame: f, EndFrame: f + 1})
	tm.Coherence, tm.OSShards, tm.WireFlags = false, 0, 0
	qStart := m.mt.Begin()
	step, err := newFrameStep(m.cfg.Scene, tm, new(rangeHolder), nil, nil)
	if err != nil {
		return err
	}
	fd, _, err := step.render(f)
	if err != nil {
		return err
	}
	m.mt.EndArg(timeline.OpQuarantine, f, qStart, int64(region.Area()))
	m.res.Faults.FramesQuarantined++
	m.frameStats[f].Rays.Merge(fd.Rays)
	if m.sinks != nil {
		// Assembly lives at the sink: ship the quarantined region there
		// as a master-relayed key-frame; the confirmation completes it.
		m.sinks.relay("master", f, step.encode(&fd, true))
		m.sinks.setPending(f, region, "master")
		return nil
	}
	_, dup, err := m.asm.Deliver(f, region, step.buf.Pix, m.ln.Now())
	if err != nil || dup {
		return err
	}
	return m.countDown(f)
}

// requeueGaps puts every still-undelivered frame of a task range back on
// the queue, merged into contiguous runs. Driven both by worker loss and
// by task completions whose frame results went missing in transit.
func (m *master) requeueGaps(region fb.Rect, startF, endF int) {
	runStart := -1
	for f := startF; f <= endF; f++ {
		// A result acked as shipped to a sink but not yet confirmed is in
		// flight, not missing; if its shipper or sink dies, the pending
		// entry is cleared and a later requeue pass catches it.
		missing := f < endF && !m.asm.Delivered(f, region) &&
			!(m.sinks != nil && m.sinks.isPending(f, region))
		if missing && runStart < 0 {
			runStart = f
		}
		if !missing && runStart >= 0 {
			m.requeue(region, runStart, f)
			runStart = -1
		}
	}
}

// requeue puts frames [start, end) of region back on the queue.
func (m *master) requeue(region fb.Rect, start, end int) {
	m.queue = append(m.queue, m.newTask(region, start, end))
	m.res.Faults.FramesRequeued += uint64(end - start)
	m.mt.Instant(timeline.OpRequeue, start, int64(end-start))
}

// newTask mints a task over frames [start, end) of region.
func (m *master) newTask(region fb.Rect, start, end int) partition.Task {
	t := partition.Task{ID: m.nextTaskID, Region: region, StartFrame: start, EndFrame: end}
	m.nextTaskID++
	return t
}

// covered reports whether an active worker task or a queued task will
// still render (frame, region) — consulted when a sink reports a miss,
// to decide whether the frame needs an immediate requeue. A worker whose
// doneThrough is already past the frame will never resend it.
func (m *master) covered(frame int, region fb.Rect) bool {
	for _, w := range m.roster {
		if !w.dead && w.hasTask && w.task.Region == region && frame >= w.doneThrough && frame < w.task.EndFrame {
			return true
		}
	}
	for _, t := range m.queue {
		if t.Region == region && frame >= t.StartFrame && frame < t.EndFrame {
			return true
		}
	}
	return false
}

// await marks (frame, region) as in flight from w to its sink, so
// requeueGaps leaves it to the sink's confirmation or miss. A retired
// worker's late result is not awaited: retiring it forgot its entries and
// requeued its frames.
func (m *master) await(frame int, region fb.Rect, w *workerRecord) {
	if !w.dead {
		m.sinks.setPending(frame, region, w.name)
	}
}

// credit books one frame result's render statistics to its frame and its
// worker.
func (m *master) credit(w *workerRecord, frame, rendered, copied int, rays stats.RayCounters, elapsedNs int64) {
	d := time.Duration(elapsedNs)
	fs := &m.frameStats[frame]
	fs.Elapsed += d
	fs.Rays.Merge(rays)
	fs.Rendered += rendered
	fs.Copied += copied
	w.st.Busy += d
	w.st.Rays.Merge(rays)
	if frame == w.task.StartFrame {
		w.cold = d
	} else {
		w.steady += d
		w.steadyN++
	}
}

// countKind counts one frame result as a key-frame or a delta.
func (m *master) countKind(kind int) {
	if kind == frameDelta {
		m.res.Wire.FramesDelta++
	} else {
		m.res.Wire.FramesFull++
	}
}

// ingress books n bytes of result traffic into the master.
func (m *master) ingress(n int) {
	m.res.BytesTransferred += int64(n)
	m.res.Wire.WireBytes += uint64(n)
	m.res.Wire.MasterIngressBytes += uint64(n)
}

// countDown retires a frame from the run once its last region has
// landed, handing it to OnFrame on the master-routed path. Callers drop
// duplicate deliveries first: a repeat of a finished frame's region would
// count it down twice.
func (m *master) countDown(frame int) error {
	if !m.asm.FrameComplete(frame) {
		return nil
	}
	m.framesRemaining--
	if m.sinks != nil || m.cfg.OnFrame == nil {
		return nil // under DFB the sinks hand out finished frames
	}
	return m.cfg.OnFrame(frame, m.asm.Frame(frame))
}

// check states the master's invariants; runMaster asserts them after
// every event.
//   - Retire-once: framesRemaining counts exactly the frames of the run
//     the assembly does not hold complete.
//   - A worker holding a task is joined and alive, and a truncate is
//     pending only against a live worker holding a task.
//   - A parked thief is joined, alive and taskless, and no more thieves
//     are parked than truncates are pending.
//   - Every result awaited at a sink was shipped by the master or by a
//     live worker.
func (m *master) check() error {
	incomplete := 0
	for f := m.cfg.StartFrame; f < m.cfg.EndFrame; f++ {
		if !m.asm.FrameComplete(f) {
			incomplete++
		}
	}
	if incomplete != m.framesRemaining {
		return fmt.Errorf("framesRemaining %d, but %d frames are incomplete", m.framesRemaining, incomplete)
	}
	truncates := 0
	for _, w := range m.roster {
		if w.hasTask && (w.dead || !w.joined) {
			return fmt.Errorf("worker %s holds task %d (dead %v, joined %v)", w.name, w.task.ID, w.dead, w.joined)
		}
		if w.truncatePending {
			if !w.hasTask || w.dead {
				return fmt.Errorf("worker %s awaits a truncate ack without a live task (task %v, dead %v)", w.name, w.hasTask, w.dead)
			}
			truncates++
		}
	}
	for _, w := range m.waiting {
		if w.dead || !w.joined || w.hasTask {
			return fmt.Errorf("parked thief %s: dead %v, joined %v, task %v", w.name, w.dead, w.joined, w.hasTask)
		}
	}
	if len(m.waiting) > truncates {
		return fmt.Errorf("%d thieves parked on %d pending truncates", len(m.waiting), truncates)
	}
	if m.sinks != nil {
		for k, who := range m.sinks.pending {
			if w := m.workers[who]; who != "master" && (w == nil || w.dead) {
				return fmt.Errorf("frame %d region %v awaited from %q, no live worker", k.frame, k.region, who)
			}
		}
	}
	return nil
}

// finish ends the run once every frame is in: it shuts down every worker
// — joined or not, so none is left waiting — and fills in the result:
// the frames (unless they live at the sinks), the statistics, the cluster
// timeline, and the frames handed to Emit.
func (m *master) finish() (*Result, error) {
	cfg, res := &m.cfg, m.res
	if err := m.asm.Complete(); err != nil {
		return res, err
	}
	// Sends to dead workers fail harmlessly.
	for _, w := range m.roster {
		_ = m.ln.Send(w.name, msg.Message{Tag: TagShutdown})
	}
	if m.sinks != nil {
		// The pixels live at the sinks: collect them there.
		res.Frames = make([]*fb.Framebuffer, cfg.EndFrame-cfg.StartFrame)
		for f := cfg.StartFrame; f < cfg.EndFrame; f++ {
			res.Frames[f-cfg.StartFrame] = cfg.DFB.collect(f)
		}
	} else {
		res.Frames = m.asm.Frames()
	}
	res.Makespan = m.ln.Now()
	for f := cfg.StartFrame; f < cfg.EndFrame; f++ {
		m.frameStats[f].Frame = f
		res.Run.AddFrame(m.frameStats[f])
	}
	res.Run.Total = res.Makespan
	for _, w := range m.roster {
		res.Workers = append(res.Workers, w.st)
	}
	if m.tl.rec != nil {
		res.Timeline = m.tl.merge(cfg)
	}
	return res, nil
}

// shippedTimeline gathers what workers ship of the timeline, piggybacked
// on their results, until the end of the run, when it is offset-corrected
// onto the master clock and merged with the master's own tracks.
type shippedTimeline struct {
	rec    *timeline.Recorder // nil: recording off
	events timeline.Timeline
	// offsets estimates each worker's clock offset; groups maps its hub
	// name to the group of the tracks it ships. Over TCP they differ: the
	// hub names the connection ("tcp00"), the worker names its tracks
	// after itself ("wsA").
	offsets map[string]*timeline.OffsetEstimator
	groups  map[string]string
}

func (t *shippedTimeline) offset(name string) *timeline.OffsetEstimator {
	est := t.offsets[name]
	if est == nil {
		est = &timeline.OffsetEstimator{}
		t.offsets[name] = est
	}
	return est
}

// add folds one message's timeline piggyback (on a frame result, or on a
// DFB control ack) into the store and refines the sender's clock-offset
// estimate.
func (t *shippedTimeline) add(from string, tlNow int64, tracks []string, events []wireEvent) {
	if t.rec == nil || (tlNow == 0 && len(tracks) == 0) {
		return
	}
	// Every shipped result refines the worker's one-way offset bound;
	// heartbeat RTT samples (TagPong) override it.
	if tlNow != 0 {
		t.offset(from).AddOneWay(t.rec.Now(), tlNow)
	}
	if len(tracks) > 0 {
		t.groups[from] = timeline.GroupOf(tracks[0])
	}
	// Merge the piggybacked events, batching runs of the same track (the
	// common case: all of one track's events arrive adjacent) into single
	// AddTrack calls.
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) && events[j].Track == events[i].Track {
			j++
		}
		evs := make([]timeline.Event, 0, j-i)
		for k := i; k < j; k++ {
			evs = append(evs, events[k].Ev)
		}
		t.events.AddTrack(tracks[events[i].Track], evs, 0)
		i = j
	}
}

// merge builds the cluster timeline: the master's own tracks, plus every
// shipped worker track shifted onto the master clock by that worker's
// offset estimate (track group = worker name).
func (t *shippedTimeline) merge(cfg *Config) *timeline.Timeline {
	tl := t.rec.Snapshot()
	tl.Meta["scheme"] = cfg.Scheme.Name()
	tl.Meta["resolution"] = fmt.Sprintf("%dx%d", cfg.W, cfg.H)
	tl.Meta["frames"] = fmt.Sprintf("[%d,%d)", cfg.StartFrame, cfg.EndFrame)
	for i := range t.events.Tracks {
		td := &t.events.Tracks[i]
		tl.AddTrack(td.Name, td.Events, td.Dropped)
	}
	for name, est := range t.offsets {
		// Shift the group the worker actually shipped tracks under; a
		// worker that never shipped any has nothing to shift, and its
		// offset is omitted as noise.
		group, ok := t.groups[name]
		if !ok {
			continue
		}
		tl.Shift(group, est.Offset())
		tl.Meta["offset/"+group] = fmt.Sprintf("%dns (%s)", est.Offset(), est.Quality())
	}
	tl.Sort()
	return tl
}

// RenderLocal runs the farm with in-process goroutine workers connected
// by channel pipes — the wall-clock counterpart of RenderVirtual, and a
// live exercise of the full wire protocol. With cfg.Faults set, each
// worker's end of its pipe is wrapped (fault injection), and the exit
// errors of the workers the plan can fault are tolerated: for them dying
// is the scenario, not a failure. A protected worker's error still
// fails the run.
func RenderLocal(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	// In-process distributed framebuffer: spin up a compositor registry,
	// point the master and the workers at its dialer, and collect the
	// assembled frames from the sinks at run end (the master never holds
	// pixels under DFB). Tests kill and restart sinks through the same
	// registry: a Dial after Close recreates the sink, which is exactly
	// a compositor process restart.
	var opts WorkerOptions
	if cfg.DFB != nil && cfg.DFB.Sinks > 0 {
		n := cfg.DFB.Sinks
		if frames := cfg.EndFrame - cfg.StartFrame; n > frames {
			n = frames
		}
		collected := make([]*fb.Framebuffer, cfg.EndFrame-cfg.StartFrame)
		var cmu sync.Mutex
		userOnFrame := cfg.OnFrame
		startFrame := cfg.StartFrame
		onFrame := func(f int, img *fb.Framebuffer) error {
			cmu.Lock()
			defer cmu.Unlock()
			collected[f-startFrame] = img
			if userOnFrame != nil {
				return userOnFrame(f, img)
			}
			return nil
		}
		reg := compositor.NewRegistry(func(i int) *compositor.Compositor {
			return compositor.New(compositor.Config{
				Name: compositor.Addr(i), OnFrame: onFrame, Timeline: cfg.Timeline,
			})
		})
		defer reg.CloseAll()
		dfb := *cfg.DFB
		dfb.addrs = make([]string, n)
		for i := range dfb.addrs {
			dfb.addrs[i] = compositor.Addr(i)
		}
		if dfb.dial == nil {
			dfb.dial = reg.Dial
		}
		dfb.collect = func(f int) *fb.Framebuffer {
			cmu.Lock()
			defer cmu.Unlock()
			return collected[f-startFrame]
		}
		cfg.DFB = &dfb
		cfg.OnFrame = nil // the sinks own frame delivery now
		opts.sinkDial = dfb.dial
	}
	hub := msg.NewHub()
	errCh := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		masterEnd, workerEnd := msg.Pipe(64)
		name := fmt.Sprintf("worker%02d", i)
		if err := hub.Attach(name, masterEnd); err != nil {
			return nil, err
		}
		conn := cfg.Faults.Wrap(name, workerEnd)
		go func(name string, conn msg.Conn, faulted bool) {
			err := RunWorkerWithOptions(context.Background(), name, conn, cfg.Scene, opts)
			// Close the worker's end however it exited, so the hub posts
			// its TagDown promptly instead of the master waiting out the
			// liveness deadline on a silently-departed worker.
			conn.Close()
			if faulted {
				err = nil // a faulted worker dying is the scenario
			}
			errCh <- err
		}(name, conn, conn != workerEnd)
	}
	res, err := RunMaster(cfg, hub)
	hub.Close()
	// Collect worker exits; surface the first failure.
	var workerErr error
	for i := 0; i < cfg.Workers; i++ {
		if e := <-errCh; e != nil && workerErr == nil {
			workerErr = e
		}
	}
	if err != nil {
		// The partial result still carries the fault counters, so callers
		// (the service's retry loop) can account for what a failed run
		// absorbed before it died.
		return res, err
	}
	if workerErr != nil {
		return nil, fmt.Errorf("farm: worker failed: %w", workerErr)
	}
	return res, nil
}
