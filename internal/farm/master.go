package farm

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// tagTick is the synthetic local message the heartbeat ticker posts into
// the hub's stream; it never crosses a connection.
const tagTick = -0x7FFFFFFE

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
// whose clock only moves when a machine computes or a message crosses
// the bus.
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
// Used by RenderLocal (goroutine workers) and cmd/nowrender's TCP mode.
//
// Failure handling (see DESIGN.md §8): a worker is retired — its
// undelivered frames requeued on the survivors — when its connection
// drops (TagDown), it departs gracefully (TagBye), it stays silent past
// the liveness deadline, it holds a task without progress past the
// stall deadline, or it sends a malformed message — including a hello
// that is not ProtocolVersion. A frame rendering requeued more than
// FrameRetries times is quarantined: the master renders the region
// locally instead of feeding it to another doomed worker. The run fails
// only when every worker is lost with frames outstanding.
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

	// The ticker interleaves liveness/stall checks with slave traffic so
	// the event loop stays single-threaded. Posts are best-effort; a
	// dropped tick is followed by another.
	tickEvery := cfg.Heartbeat
	if tickEvery <= 0 && cfg.StallTimeout > 0 {
		tickEvery = cfg.StallTimeout / 4
	}
	if tickEvery > 0 {
		if tickEvery < time.Millisecond {
			tickEvery = time.Millisecond
		}
		ticker := time.NewTicker(tickEvery)
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
		shard := partition.ShardMap{Start: cfg.StartFrame, End: cfg.EndFrame, N: len(cfg.DFB.Addrs)}
		sinks = newSinkControl(cfg.DFB, hub, cfg.W, cfg.H, shard)
	}
	return runMaster(cfg, hubLink{hub, time.Now()}, sinks)
}

// runMaster is the one master loop (§3): hand out the scheme's tasks,
// subdivide the busiest worker's remaining frames when another runs dry,
// assemble results, absorb failures. cfg has had its defaults applied;
// sinks is nil unless the distributed framebuffer is on.
func runMaster(cfg Config, ln link, sinks *sinkControl) (*Result, error) {
	sc := cfg.Scene
	names := ln.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("farm: no workers attached")
	}

	liveness := cfg.Liveness
	if liveness == 0 && cfg.Heartbeat > 0 {
		liveness = 4 * cfg.Heartbeat
	}
	if cfg.Heartbeat == 0 {
		// Without pings a healthy idle worker is legitimately silent, so
		// silence must not be a death sentence.
		liveness = 0
	}
	retryBudget := cfg.FrameRetries
	if retryBudget == 0 {
		retryBudget = 3
	}

	queue := cfg.Scheme.InitialTasks(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame, len(names))
	if err := partition.ValidateTiling(queue, cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame); err != nil {
		return nil, err
	}
	nextTaskID := len(queue)
	// regions is the scheme's distinct tiling regions — the recovery
	// paths (sink restart) requeue per region.
	var regions []fb.Rect
	{
		seenRegion := make(map[fb.Rect]bool)
		for _, t := range queue {
			if !seenRegion[t.Region] {
				seenRegion[t.Region] = true
				regions = append(regions, t.Region)
			}
		}
	}

	// Distributed framebuffer: dial and initialise the compositor fleet
	// before any worker gets a task, so the data plane is up when the
	// first DFB frame ships.
	dfbOn := sinks != nil
	if dfbOn {
		if err := sinks.dialAll(); err != nil {
			return nil, err
		}
	}

	// roster holds the workers in name order. Every walk over them goes
	// through it, never the map, so equal candidates resolve to the first
	// name on every run.
	workers := make(map[string]*workerRecord, len(names))
	roster := make([]*workerRecord, len(names))
	for i, n := range names {
		roster[i] = &workerRecord{name: n, st: stats.WorkerStats{Worker: n}}
		workers[n] = roster[i]
	}
	// reported maps a worker's self-introduced hello name to its hub
	// name. Over TCP the two differ (tcp00 vs -name wsA), and compositor
	// sinks attribute confirmations and misses by the name the worker
	// joined them with — the hello name. byReport resolves either form.
	reported := make(map[string]string)
	byReport := func(name string) *workerRecord {
		if w := workers[name]; w != nil {
			return w
		}
		return workers[reported[name]]
	}

	asm := newAssemblyRange(cfg.W, cfg.H, cfg.StartFrame, cfg.EndFrame)
	framesRemaining := cfg.EndFrame - cfg.StartFrame
	res := &Result{}
	// frameStats accumulates each frame's render statistics over the
	// regions that make it up.
	frameStats := make([]stats.FrameStats, sc.Frames)
	// credit books one frame result's render statistics to its frame and
	// its worker.
	credit := func(w *workerRecord, frame, rendered, copied int, rays stats.RayCounters, elapsedNs int64) {
		d := time.Duration(elapsedNs)
		fs := &frameStats[frame]
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
	frameFails := make(map[int]int) // per-frame requeue counts (retry budget)
	speculated := make(map[int]bool)
	var waiting []string // idle workers awaiting stolen work
	var pingSeq int
	var refusals []string // why workers were refused, for the nobody-left error

	// Timeline recording: the master's own scheduling events go straight
	// onto mt (nil track = disabled, every call one branch); worker
	// events shipped on results accumulate in `shipped` until the end of
	// the run, when they are offset-corrected onto the master clock and
	// merged into Result.Timeline.
	rec := cfg.Timeline
	mt := rec.Track("master/loop")
	shipped := &timeline.Timeline{}
	offsets := make(map[string]*timeline.OffsetEstimator)
	// tlGroups maps a hub name to the group of the tracks that worker
	// ships. Over TCP they differ: the hub names the connection
	// ("tcp00"), the worker names its tracks after itself ("wsA").
	tlGroups := make(map[string]string)
	offsetFor := func(name string) *timeline.OffsetEstimator {
		est := offsets[name]
		if est == nil {
			est = &timeline.OffsetEstimator{}
			offsets[name] = est
		}
		return est
	}
	// mergeShipped folds one message's timeline piggyback (on a frame
	// result, or on a DFB control ack) into the shipped-events store and
	// refines the sender's clock-offset estimate.
	mergeShipped := func(from string, tlNow int64, tracks []string, events []wireEvent) {
		if rec == nil || (tlNow == 0 && len(tracks) == 0) {
			return
		}
		// Every shipped result refines the worker's one-way offset
		// bound; heartbeat RTT samples (TagPong) override it.
		if tlNow != 0 {
			offsetFor(from).AddOneWay(rec.Now(), tlNow)
		}
		if len(tracks) > 0 {
			tlGroups[from] = timeline.GroupOf(tracks[0])
		}
		// Merge the piggybacked events, batching runs of the same track
		// (the common case: all of one track's events arrive adjacent)
		// into single AddTrack calls.
		for i := 0; i < len(events); {
			j := i + 1
			for j < len(events) && events[j].Track == events[i].Track {
				j++
			}
			evs := make([]timeline.Event, 0, j-i)
			for k := i; k < j; k++ {
				evs = append(evs, events[k].Ev)
			}
			shipped.AddTrack(tracks[events[i].Track], evs, 0)
			i = j
		}
	}

	// taskFor is the assignment message for a task: the task plus every
	// render option of the run, so the frame step at the other end of
	// the link — and the quarantine render at this end — see one answer.
	taskFor := func(t partition.Task) taskMsg {
		co := cfg.CoherenceOpts
		return taskMsg{
			Task: t, W: cfg.W, H: cfg.H,
			Coherence: cfg.Coherence, Samples: cfg.Samples,
			GridRes: co.GridRes, BlockGran: co.BlockGranularity,
			AAThreshold: co.AAThreshold, AASamples: co.AASamples,
			Threads: cfg.Threads, WireFlags: cfg.wireFlags(), OSShards: cfg.ObjSpaceShards,
		}
	}

	sendTask := func(w *workerRecord, t partition.Task) error {
		mt.Instant(timeline.OpDispatch, t.StartFrame, int64(t.ID))
		tm := taskFor(t)
		if dfbOn {
			tm.JobStart, tm.JobEnd = cfg.StartFrame, cfg.EndFrame
			tm.Sinks = cfg.DFB.Addrs
		}
		data := encodeTask(tm)
		res.BytesTransferred += int64(len(data))
		res.TasksExecuted++
		w.task = t
		w.hasTask = true
		w.doneThrough = t.StartFrame
		w.truncatePending = false
		w.finishedAt = -1
		w.cold, w.steady, w.steadyN = 0, 0, 0
		w.lastProgress = ln.Now()
		if err := ln.Send(w.name, msg.Message{Tag: TagTask, Data: data}); err != nil {
			if errors.Is(err, msg.ErrClosed) {
				// The worker crashed under us; its TagDown is already in
				// flight and retire() will requeue this task.
				return nil
			}
			return err
		}
		return nil
	}

	// renderQuarantined renders one frame region on the master itself —
	// the escape hatch for a frame that keeps killing workers — through
	// the workers' own frame step as a one-frame plain task: the plain
	// tracer is pixel-identical to every farm mode (the repo's core
	// invariant), so quarantined frames are indistinguishable in the
	// output.
	renderQuarantined := func(f int, region fb.Rect) error {
		tm := taskFor(partition.Task{ID: -1, Region: region, StartFrame: f, EndFrame: f + 1})
		tm.Coherence, tm.OSShards, tm.WireFlags = false, 0, 0
		qStart := mt.Begin()
		step, err := newFrameStep(sc, tm, new(rangeHolder), nil, nil)
		if err != nil {
			return err
		}
		fd, _, err := step.render(f)
		if err != nil {
			return err
		}
		mt.EndArg(timeline.OpQuarantine, f, qStart, int64(region.Area()))
		res.Faults.FramesQuarantined++
		frameStats[f].Rays.Merge(fd.Rays)
		if dfbOn {
			// Assembly lives at the sink: ship the quarantined region there
			// as a master-relayed key-frame; the confirmation completes it.
			sinks.relay("master", f, region, step.encode(&fd, true))
			return nil
		}
		complete, dup, err := asm.Deliver(f, region, extractRegion(step.buf, region), ln.Now())
		if err != nil {
			return err
		}
		if complete && !dup {
			framesRemaining--
			if cfg.OnFrame != nil {
				return cfg.OnFrame(f, asm.Frame(f))
			}
		}
		return nil
	}

	// requeueGaps puts every still-undelivered frame of a task range
	// back on the queue, merged into contiguous runs. Driven both by
	// worker loss and by task completions whose frame results went
	// missing in transit.
	requeueGaps := func(region fb.Rect, startF, endF int) {
		runStart := -1
		for f := startF; f <= endF; f++ {
			// A result acked as shipped to a sink but not yet confirmed is
			// in flight, not missing; if its shipper or sink dies, the
			// pending entry is cleared and a later requeue pass catches it.
			missing := f < endF && !asm.Delivered(f, region) &&
				!(dfbOn && sinks.isPending(f, region))
			if missing && runStart < 0 {
				runStart = f
			}
			if !missing && runStart >= 0 {
				queue = append(queue, partition.Task{
					ID: nextTaskID, Region: region, StartFrame: runStart, EndFrame: f,
				})
				nextTaskID++
				res.Faults.FramesRequeued += uint64(f - runStart)
				mt.Instant(timeline.OpRequeue, runStart, int64(f-runStart))
				runStart = -1
			}
		}
	}

	// trySteal picks the victim with the most unfinished frames and asks
	// it to stop early; the requesting worker is parked until the ack.
	trySteal := func(thief string) (bool, error) {
		var victim *workerRecord
		for _, w := range roster {
			if w.name == thief || !w.hasTask || w.truncatePending || w.dead {
				continue
			}
			if victim == nil || w.remaining() > victim.remaining() {
				victim = w
			}
		}
		if victim == nil {
			return false, nil
		}
		// The victim is rendering doneThrough; the scheme decides whether
		// and where to split the frames after it (an adaptive one gives
		// away the second half of two or more; static and hybrid never).
		rendering := victim.doneThrough // frame in progress (or next)
		unstarted := victim.task
		unstarted.StartFrame = rendering + 1
		keep, _, ok := cfg.Scheme.Subdivide(unstarted)
		if !ok {
			return false, nil
		}
		// A stolen range starts a new coherence engine, whose first frame
		// is a full trace. Left alone the victim needs (1 + keep + give)
		// steady frames for the one in progress and both halves; the thief
		// needs one cold frame and give - 1 steady ones, so the steal
		// shortens the run only if cold < (keep + 2) steady. Without a
		// sample of each, steal.
		if cfg.Coherence && victim.cold > 0 && victim.steadyN > 0 {
			steady := victim.steady / time.Duration(victim.steadyN)
			if victim.cold >= time.Duration(keep.Frames()+2)*steady {
				return false, nil
			}
		}
		victim.truncatePending = true
		waiting = append(waiting, thief)
		res.Subdivisions++
		mt.Instant(timeline.OpSteal, rendering, int64(victim.task.ID))
		if err := ln.Send(victim.name, msg.Message{Tag: TagTruncate, Data: encodePair(victim.task.ID, keep.EndFrame)}); err != nil {
			if errors.Is(err, msg.ErrClosed) {
				// Victim crashed; its TagDown will retire it, requeue its
				// frames and release the parked thief.
				return true, nil
			}
			return true, err
		}
		return true, nil
	}

	// trySpeculate re-issues the slowest in-flight task's remaining
	// frames to an idle worker — the straggler hedge for the end of the
	// run, when the queue is dry and nothing is big enough to steal.
	// Whichever copy delivers a (frame, region) first wins; the
	// duplicate is dropped by the assembly.
	trySpeculate := func(thief string) (bool, error) {
		if !cfg.Speculate {
			return false, nil
		}
		var victim *workerRecord
		for _, w := range roster {
			if w.name == thief || !w.hasTask || w.truncatePending || w.dead {
				continue
			}
			if speculated[w.task.ID] || w.remaining() < 1 {
				continue
			}
			if victim == nil || w.remaining() > victim.remaining() {
				victim = w
			}
		}
		if victim == nil {
			return false, nil
		}
		spec := partition.Task{
			ID: nextTaskID, Region: victim.task.Region,
			StartFrame: victim.doneThrough, EndFrame: victim.task.EndFrame,
		}
		nextTaskID++
		speculated[victim.task.ID] = true
		speculated[spec.ID] = true // no speculation chains
		res.Faults.SpeculativeTasks++
		mt.Instant(timeline.OpSpeculate, spec.StartFrame, int64(spec.ID))
		return true, sendTask(workers[thief], spec)
	}

	// giveWork hands the next queued task to an idle worker, then tries
	// a steal, then a speculative re-issue; with none the worker idles.
	giveWork := func(name string) error {
		w := workers[name]
		if w.dead {
			return nil
		}
		if len(queue) > 0 {
			t := queue[0]
			queue = queue[1:]
			return sendTask(w, t)
		}
		if stole, err := trySteal(name); stole || err != nil {
			return err
		}
		_, err := trySpeculate(name)
		return err
	}

	// dispatchQueue re-engages idle, alive workers after tasks were
	// requeued (e.g. recovered from a dead worker).
	dispatchQueue := func() error {
		for _, w := range roster {
			if len(queue) == 0 {
				return nil
			}
			if w.dead || w.hasTask || !w.joined {
				continue
			}
			parked := false
			for _, name := range waiting {
				if name == w.name {
					parked = true
					break
				}
			}
			if parked {
				continue
			}
			if err := giveWork(w.name); err != nil {
				return err
			}
		}
		return nil
	}

	// retire removes a worker from the run — failure (TagDown), graceful
	// departure (TagBye), deadline expiry or protocol violation, before
	// its hello as well as after — requeueing its undelivered frames and
	// re-engaging parked thieves.
	// The frame that was in flight is charged against its retry budget;
	// over budget, the master renders it locally (quarantine) so one
	// poisonous frame cannot consume the whole farm.
	retire := func(w *workerRecord) error {
		if w.dead {
			return nil
		}
		w.dead = true
		res.Faults.WorkersLost++
		mt.Instant(timeline.OpRetire, -1, int64(w.task.ID))
		ln.Detach(w.name)
		if dfbOn {
			// Results this worker acked but no sink confirmed may have died
			// with it; forget them so requeueGaps re-renders them.
			sinks.clearWorker(w.name)
		}
		// Drop the worker from the thief waiting list.
		for i, name := range waiting {
			if name == w.name {
				waiting = append(waiting[:i], waiting[i+1:]...)
				break
			}
		}
		if w.hasTask {
			// Charge the first undelivered frame — the one in progress
			// when the worker was lost.
			for f := w.task.StartFrame; f < w.task.EndFrame; f++ {
				if asm.Delivered(f, w.task.Region) {
					continue
				}
				frameFails[f]++
				if retryBudget >= 0 && frameFails[f] > retryBudget {
					if err := renderQuarantined(f, w.task.Region); err != nil {
						return err
					}
				}
				break
			}
			requeueGaps(w.task.Region, w.task.StartFrame, w.task.EndFrame)
			w.hasTask = false
			// A truncate pending against this worker will never be
			// acknowledged; the full remainder was requeued instead,
			// so release any parked thief.
			if w.truncatePending {
				w.truncatePending = false
				res.Subdivisions--
			}
		}
		alive := 0
		for _, o := range roster {
			if !o.dead {
				alive++
			}
		}
		if alive == 0 && framesRemaining > 0 {
			if len(refusals) > 0 {
				return fmt.Errorf("farm: all workers lost with %d frames unfinished (refused: %s)",
					framesRemaining, strings.Join(refusals, "; "))
			}
			return fmt.Errorf("farm: all workers lost with %d frames unfinished", framesRemaining)
		}
		if len(waiting) > 0 && len(queue) > 0 {
			thief := waiting[0]
			waiting = waiting[1:]
			if err := giveWork(thief); err != nil {
				return err
			}
		}
		return dispatchQueue()
	}

	// malformed absorbs an undecodable or protocol-violating message by
	// retiring its sender: a worker that garbles one message cannot be
	// trusted with the next, but it must not take the run down with it.
	malformed := func(w *workerRecord) error {
		res.Faults.MalformedMessages++
		return retire(w)
	}

	// refuse retires a worker that broke the handshake — a hello that is
	// not ProtocolVersion, a second hello, anything else before its hello —
	// and says so loudly: unlike a message garbled in transit, this is a
	// deployment mistake (a stale binary) somebody has to fix.
	refuse := func(w *workerRecord, reason string) error {
		log.Printf("farm: refusing worker %s: %s", w.name, reason)
		refusals = append(refusals, w.name+": "+reason)
		return malformed(w)
	}

	// Seed: respond to hellos (workers announce themselves) and assign.
	// A worker lost or refused before it joins costs the run only that
	// worker — retire fails the run once nobody is left; with a liveness
	// deadline configured, a worker whose hello never arrives is given up
	// on rather than awaited forever. A worker seeded early can finish
	// frames — or a whole task — before a slower peer's hello arrives in
	// the shared inbox; everything a joined worker sends is backlogged
	// for the main loop, which also owns its protocol violations.
	var backlog []msg.Message
	awaited := func() (n int) {
		for _, w := range roster {
			if !w.joined && !w.dead {
				n++
			}
		}
		return n
	}
	for awaited() > 0 {
		m, err := ln.Recv()
		if err != nil {
			return res, err
		}
		if m.Tag == tagTick {
			if liveness > 0 && ln.Now() > liveness {
				for _, w := range roster {
					if !w.joined && !w.dead {
						res.Faults.HeartbeatTimeouts++
						if err := retire(w); err != nil {
							return res, err
						}
					}
				}
			}
			continue
		}
		w, ok := workers[m.From]
		if !ok || w.joined {
			// Sink traffic (an early confirmation, or a sink dying before
			// all workers joined) and joined workers' traffic are the main
			// loop's business.
			backlog = append(backlog, m)
			continue
		}
		if w.dead {
			continue // the TagDown of a worker already refused or given up on
		}
		switch m.Tag {
		case TagHello:
			helloName, err := decodeHello(m.Data)
			if err != nil {
				if err := refuse(w, err.Error()); err != nil {
					return res, err
				}
				continue
			}
			w.joined = true
			w.lastHeard = ln.Now()
			if helloName != "" && helloName != m.From {
				reported[helloName] = m.From
			}
			if err := giveWork(m.From); err != nil {
				return res, err
			}
		case msg.TagDown, TagBye:
			if err := retire(w); err != nil {
				return res, err
			}
		default:
			if err := refuse(w, fmt.Sprintf("tag %d before hello", m.Tag)); err != nil {
				return res, err
			}
		}
	}

	// reconcileTruncate finishes the truncation handshake once the
	// worker's stop frame is known — from its ack, or from a TaskDone
	// that arrived while the ack was lost in transit (the connection is
	// ordered, so a TaskDone with the ack still pending means the ack is
	// gone, not late).
	reconcileTruncate := func(w *workerRecord, stop int) error {
		w.truncatePending = false
		stolenStart := stop
		if w.finishedAt >= 0 && w.finishedAt > stolenStart {
			stolenStart = w.finishedAt
		}
		stolenEnd := w.task.EndFrame
		w.task.EndFrame = stolenStart
		if w.finishedAt >= 0 {
			// Task already over; release the worker.
			w.hasTask = false
			w.st.TasksDone++
			if framesRemaining > 0 {
				if err := giveWork(w.name); err != nil {
					return err
				}
			}
		}
		// Hand the stolen range to a waiting thief (or re-queue).
		if stolenStart < stolenEnd {
			stolen := partition.Task{
				ID: nextTaskID, Region: w.task.Region,
				StartFrame: stolenStart, EndFrame: stolenEnd,
			}
			nextTaskID++
			if len(waiting) > 0 {
				thief := waiting[0]
				waiting = waiting[1:]
				if err := sendTask(workers[thief], stolen); err != nil {
					return err
				}
			} else {
				queue = append(queue, stolen)
			}
		} else if len(waiting) > 0 {
			// Nothing was left to steal; let the thief try again.
			thief := waiting[0]
			waiting = waiting[1:]
			if err := giveWork(thief); err != nil {
				return err
			}
		}
		return nil
	}

	// covered reports whether an active worker task or a queued task will
	// still render (frame, region) — consulted when a sink reports a miss,
	// to decide whether the frame needs an immediate requeue. A worker
	// whose doneThrough is already past the frame will never resend it.
	covered := func(frame int, region fb.Rect) bool {
		for _, w := range roster {
			if w.dead || !w.hasTask || w.task.Region != region {
				continue
			}
			if frame >= w.doneThrough && frame < w.task.EndFrame {
				return true
			}
		}
		for _, t := range queue {
			if t.Region == region && frame >= t.StartFrame && frame < t.EndFrame {
				return true
			}
		}
		return false
	}

	// sinkLost recovers from a dead sink connection: re-dial within the
	// redial budget, then reset every non-complete frame of its shard and
	// requeue them — whatever partial assembly or in-flight result the
	// sink held is gone. Workers mid-task keep rendering into the
	// restarted sink: their next delta base-misses, and the NeedKey
	// handshake plus the requeues (which arrive as fresh tasks, hence
	// key-frames) re-seed the shard.
	sinkLost := func(si int) error {
		var derr error
		for {
			if sinks.redialsLeft[si] <= 0 {
				if derr == nil {
					derr = fmt.Errorf("farm: sink %d (%s) lost with no redial budget", si, cfg.DFB.Addrs[si])
				}
				return derr
			}
			sinks.redialsLeft[si]--
			if derr = sinks.dial(si); derr == nil {
				break
			}
		}
		sinks.clearShard(si)
		s0, s1 := sinks.shard.Shard(si)
		for f := s0; f < s1; f++ {
			if !asm.FrameComplete(f) {
				asm.ResetFrame(f)
			}
		}
		for _, r := range regions {
			requeueGaps(r, s0, s1)
		}
		return dispatchQueue()
	}

	// handleSink processes one message from a compositor sink connection.
	// Confirmations from a replaced connection carry a stale generation
	// and are dropped; the shard reset already requeued their frames.
	handleSink := func(si int, stale bool, m msg.Message) error {
		if m.Tag == msg.TagDown {
			if stale {
				return nil // the replaced conn's pump noticed our Detach
			}
			return sinkLost(si)
		}
		switch m.Tag {
		case compositor.TagDelivered:
			d, err := compositor.DecodeDelivered(m.Data)
			if err != nil || d.Gen != sinks.gens[si] {
				return nil
			}
			res.BytesTransferred += int64(len(m.Data))
			// Per-hop accounting: WireBytes totals result-path bytes on
			// every wire — the confirmation into the master plus the pixel
			// payload the sink ingested — so master-routed and DFB runs stay
			// comparable (master-routed: WireBytes == MasterIngressBytes).
			res.Wire.WireBytes += uint64(len(m.Data)) + uint64(d.WireBytes)
			res.Wire.MasterIngressBytes += uint64(len(m.Data))
			res.Wire.SinkIngressBytes += uint64(d.WireBytes)
			res.Wire.RawBytes += uint64(d.RawBytes)
			sinks.clearPending(d.Frame, d.Region)
			complete, dup, err := asm.DeliverMeta(d.Frame, d.Region, ln.Now())
			if err != nil {
				return nil // geometry the tiling never produced; requeues recover
			}
			if dup {
				res.Faults.DuplicatesDropped++
				return nil
			}
			// Pixel credit happens here, on the sink's authoritative
			// confirmation, not on the worker's stats ack: the run ends the
			// moment the last region is confirmed, and the matching ack can
			// still be in flight — crediting acks would undercount. Summing
			// per-worker pixels therefore yields exactly frames x w x h.
			if ww := byReport(d.Worker); ww != nil {
				ww.st.PixelsDone += d.Region.Area()
			}
			if complete {
				framesRemaining--
				mt.Instant(timeline.OpSinkDeliver, d.Frame, int64(d.RawBytes))
			}
		case compositor.TagMiss:
			mm, err := compositor.DecodeMiss(m.Data)
			if err != nil || mm.Gen != sinks.gens[si] {
				return nil
			}
			res.BytesTransferred += int64(len(m.Data))
			res.Wire.WireBytes += uint64(len(m.Data))
			res.Wire.MasterIngressBytes += uint64(len(m.Data))
			sinks.clearPending(mm.Frame, mm.Region)
			if mm.Reason == compositor.MissBase {
				// Attribute under the hub name so the per-worker miss map
				// keys match the worker table (over TCP the sink knows the
				// worker by its self-introduced -name instead).
				missWorker := mm.Worker
				if ww := byReport(mm.Worker); ww != nil {
					missWorker = ww.name
				}
				res.Wire.AddBaseMiss(missWorker)
				mt.Instant(timeline.OpBaseMiss, mm.Frame, 0)
			} else {
				res.Faults.MalformedMessages++
			}
			// If nothing active will re-render the missed result, requeue
			// it now — the owning task may have completed while the miss
			// was in flight, its completion pass skipping the then-pending
			// frame.
			if !asm.Delivered(mm.Frame, mm.Region) && !covered(mm.Frame, mm.Region) {
				queue = append(queue, partition.Task{
					ID: nextTaskID, Region: mm.Region, StartFrame: mm.Frame, EndFrame: mm.Frame + 1,
				})
				nextTaskID++
				res.Faults.FramesRequeued++
				mt.Instant(timeline.OpRequeue, mm.Frame, 1)
				return dispatchQueue()
			}
		}
		return nil
	}

	for framesRemaining > 0 {
		var m msg.Message
		var err error
		if len(backlog) > 0 {
			m, backlog = backlog[0], backlog[1:]
		} else if m, err = ln.Recv(); err != nil {
			if cerr := cfg.cancelled(); cerr != nil {
				return res, cerr
			}
			return res, err
		}

		if m.Tag == tagTick {
			now := ln.Now()
			for _, w := range roster {
				if w.dead {
					continue
				}
				if liveness > 0 && now-w.lastHeard > liveness {
					res.Faults.HeartbeatTimeouts++
					if err := retire(w); err != nil {
						return res, err
					}
					continue
				}
				if cfg.StallTimeout > 0 && w.hasTask && now-w.lastProgress > cfg.StallTimeout {
					res.Faults.StallTimeouts++
					if err := retire(w); err != nil {
						return res, err
					}
					continue
				}
				if cfg.Heartbeat > 0 && !w.pingPending {
					pingSeq++
					w.pingPending = true
					res.Faults.PingsSent++
					// Stamp the master clock into the ping (0 with recording
					// off); the pong pairs it into an RTT offset sample.
					w.pingSeqSent, w.pingSentNs = pingSeq, rec.Now()
					mt.Instant(timeline.OpPing, -1, int64(pingSeq))
					_ = ln.Send(w.name, msg.Message{Tag: TagPing, Data: encodePair(pingSeq, int(w.pingSentNs))})
				}
			}
			continue
		}

		if dfbOn {
			if si, stale, ok := sinks.index(m.From); ok {
				if err := handleSink(si, stale, m); err != nil {
					return res, err
				}
				continue
			}
		}
		w, ok := workers[m.From]
		if !ok {
			return res, fmt.Errorf("farm: message from unknown worker %q", m.From)
		}
		w.lastHeard = ln.Now()
		w.pingPending = false
		switch m.Tag {
		case TagFrameDone:
			fd, err := decodeFrameDone(m.Data)
			if err != nil {
				if w.dead {
					continue // stale garbage from a retired worker
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			res.BytesTransferred += int64(len(m.Data))
			res.Wire.WireBytes += uint64(len(m.Data))
			res.Wire.MasterIngressBytes += uint64(len(m.Data))
			if !dfbOn {
				// Under DFB the raw-pixel accounting comes from the sink's
				// confirmation, once per applied result.
				res.Wire.RawBytes += uint64(fd.Region.Area() * 3)
			}
			res.Wire.CountEncoding(fd.Encoding == encSpan, uint64(len(m.Data)))
			mt.Instant(timeline.OpResult, fd.Frame, int64(len(m.Data)))
			mergeShipped(m.From, fd.TLNow, fd.TLTracks, fd.TLEvents)
			if dfbOn {
				// Master-routed pixels from a worker that could not reach
				// its sink: account the render, then relay the payload to
				// the owning sink so assembly happens in exactly one place.
				// Delivery marks and completion come from the confirmation.
				if fd.Frame < cfg.StartFrame || fd.Frame >= cfg.EndFrame {
					fd.Release()
					if w.dead {
						continue
					}
					if err := malformed(w); err != nil {
						return res, err
					}
					continue
				}
				if fd.Kind == frameDelta {
					res.Wire.FramesDelta++
				} else {
					res.Wire.FramesFull++
				}
				w.lastProgress = w.lastHeard
				w.doneThrough = fd.Frame + 1
				credit(w, fd.Frame, fd.Rendered, fd.Copied, fd.Rays, fd.ElapsedNs)
				w.st.PixelsDone += fd.Region.Area()
				sinks.relay(m.From, fd.Frame, fd.Region, m.Data)
				fd.Release()
				continue
			}
			var complete, dup bool
			if fd.Kind == frameDelta {
				res.Wire.FramesDelta++
				complete, dup, err = asm.DeliverSpans(fd.Frame, fd.Region, fd.Spans, fd.Pix, ln.Now())
				if err == nil {
					mt.Instant(timeline.OpDeltaApply, fd.Frame, int64(len(fd.Spans)))
				}
			} else {
				res.Wire.FramesFull++
				complete, dup, err = asm.Deliver(fd.Frame, fd.Region, fd.Pix, ln.Now())
			}
			fd.Release()
			if err != nil {
				if errors.Is(err, errDeltaBase) {
					mt.Instant(timeline.OpBaseMiss, fd.Frame, 0)
					// The delta's base result was lost in transit: the
					// sender is honest, so this is a drop, not a protocol
					// violation. The frame stays undelivered and is
					// re-rendered by requeueGaps when the task completes —
					// exactly like the lost base itself.
					res.Wire.AddBaseMiss(m.From)
					w.lastProgress = w.lastHeard
					w.doneThrough = fd.Frame + 1
					continue
				}
				if w.dead {
					continue
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			w.lastProgress = w.lastHeard
			w.doneThrough = fd.Frame + 1
			if dup {
				// A speculative or retried copy of a region that already
				// landed; the pixels are identical by construction.
				res.Faults.DuplicatesDropped++
				continue
			}
			if complete {
				framesRemaining--
				if cfg.OnFrame != nil {
					if err := cfg.OnFrame(fd.Frame, asm.Frame(fd.Frame)); err != nil {
						return res, err
					}
				}
			}
			credit(w, fd.Frame, fd.Rendered, fd.Copied, fd.Rays, fd.ElapsedNs)
			w.st.PixelsDone += fd.Region.Area()

		case TagFrameAck:
			// DFB control ack: the pixels went straight to a compositor
			// sink; this small message carries the per-frame statistics and
			// timeline piggyback. It advances the worker's progress but
			// does NOT mark the frame delivered — only the sink's
			// confirmation does, so a result lost between worker and sink
			// is still requeued.
			a, err := decodeFrameAck(m.Data)
			if err != nil || !dfbOn || a.Frame < cfg.StartFrame || a.Frame >= cfg.EndFrame {
				if w.dead {
					continue
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			res.BytesTransferred += int64(len(m.Data))
			res.Wire.WireBytes += uint64(len(m.Data))
			res.Wire.MasterIngressBytes += uint64(len(m.Data))
			res.Wire.FramesAcked++
			if a.Kind == frameDelta {
				res.Wire.FramesDelta++
			} else {
				res.Wire.FramesFull++
			}
			// The payload bytes crossed the worker→sink link, so charge
			// the per-codec byte counter with SinkBytes, not the ack size.
			res.Wire.CountEncoding(a.Encoding == encSpan, uint64(a.SinkBytes))
			mt.Instant(timeline.OpAck, a.Frame, int64(a.SinkBytes))
			mergeShipped(m.From, a.TLNow, a.TLTracks, a.TLEvents)
			w.lastProgress = w.lastHeard
			w.doneThrough = a.Frame + 1
			if !asm.Delivered(a.Frame, a.Region) {
				sinks.setPending(a.Frame, a.Region, m.From)
			}
			// PixelsDone is credited at TagDelivered (the sink's confirm),
			// not here — see that handler for why.
			credit(w, a.Frame, a.Rendered, a.Copied, a.Rays, a.ElapsedNs)

		case TagOSStats:
			// A task's accumulated object-space counters, sent ahead of its
			// last frame result. Stale copies from reassigned tasks still
			// describe forwarding work that really happened, so they merge
			// unconditionally.
			body, err := msg.Open(m.Data)
			var os stats.ObjSpaceStats
			if err == nil {
				os, err = objspace.DecodeStats(body)
			}
			if err != nil {
				if w.dead {
					continue
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			res.BytesTransferred += int64(len(m.Data))
			res.ObjSpace.Merge(os)
			w.lastProgress = w.lastHeard

		case TagTaskDone:
			id, end, err := decodePair(m.Data)
			if err != nil {
				if w.dead {
					continue
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			if w.dead || !w.hasTask || w.task.ID != id {
				continue // stale completion for a reassigned task
			}
			w.lastProgress = w.lastHeard
			w.finishedAt = end
			mt.Instant(timeline.OpTaskDone, end, int64(id))
			// The worker stopped at end; any result that went missing in
			// transit inside its range must be re-rendered, or the run
			// would wait forever on pixels nobody is producing.
			stop := end
			if stop > w.task.EndFrame {
				stop = w.task.EndFrame
			}
			requeueGaps(w.task.Region, w.task.StartFrame, stop)
			if w.truncatePending {
				// The ack was lost (ordered connection: it cannot merely
				// be late); reconcile from the completion instead.
				if err := reconcileTruncate(w, end); err != nil {
					return res, err
				}
			} else {
				w.hasTask = false
				w.st.TasksDone++
				if framesRemaining > 0 {
					if err := giveWork(w.name); err != nil {
						return res, err
					}
				}
			}
			if err := dispatchQueue(); err != nil {
				return res, err
			}

		case TagTruncateAck:
			id, stop, err := decodePair(m.Data)
			if err != nil {
				if w.dead {
					continue
				}
				if err := malformed(w); err != nil {
					return res, err
				}
				continue
			}
			if w.dead || !w.hasTask || w.task.ID != id {
				continue // stale ack for a finished task
			}
			w.lastProgress = w.lastHeard
			if !w.truncatePending {
				continue // already reconciled via TaskDone
			}
			if err := reconcileTruncate(w, stop); err != nil {
				return res, err
			}

		case TagPong:
			res.Faults.PongsReceived++
			if rec != nil {
				// The worker stamped its recorder clock into the pong (0 with
				// no recorder); pair it with the send time of the outstanding
				// ping for an RTT offset sample.
				if seq, _, workerNs, err := decodePong(m.Data); err == nil && workerNs != 0 && seq == w.pingSeqSent {
					offsetFor(w.name).AddRTT(w.pingSentNs, rec.Now(), workerNs)
				}
			}

		case msg.TagDown:
			// PVM-style host failure: requeue the dead worker's
			// unfinished frames and carry on with the survivors.
			if w.dead {
				continue
			}
			if err := retire(w); err != nil {
				return res, err
			}

		case TagBye:
			// Graceful departure (the worker was signalled): it finished
			// its in-flight frame — whose FrameDone preceded this message
			// on the ordered connection — and will close its connection
			// next, so the later TagDown is ignored via w.dead.
			if w.dead {
				continue
			}
			if err := retire(w); err != nil {
				return res, err
			}

		case TagHello:
			if w.dead {
				continue
			}
			if err := refuse(w, "second hello"); err != nil {
				return res, err
			}
		default:
			if w.dead {
				continue
			}
			if err := malformed(w); err != nil { // unknown tag
				return res, err
			}
		}
	}

	if err := asm.Complete(); err != nil {
		return res, err
	}
	// All pixels delivered: stop the workers. Sends to dead workers
	// fail harmlessly.
	for _, w := range roster {
		_ = ln.Send(w.name, msg.Message{Tag: TagShutdown})
	}

	if dfbOn {
		// The pixels live at the sinks. In-process runs collect them via
		// the DFB config's collector; daemon sinks (cmd/nowcompose) wrote
		// the frames out themselves and the master returns none.
		sinks.close()
		if cfg.DFB.collect != nil {
			res.Frames = make([]*fb.Framebuffer, cfg.EndFrame-cfg.StartFrame)
			for f := cfg.StartFrame; f < cfg.EndFrame; f++ {
				res.Frames[f-cfg.StartFrame] = cfg.DFB.collect(f)
			}
		}
	} else {
		res.Frames = asm.Frames()
	}
	res.Makespan = ln.Now()
	for f := cfg.StartFrame; f < cfg.EndFrame; f++ {
		frameStats[f].Frame = f
		res.Run.AddFrame(frameStats[f])
	}
	res.Run.Total = res.Makespan
	for _, w := range roster {
		res.Workers = append(res.Workers, w.st)
	}
	if rec != nil {
		// Build the cluster timeline: the master's own tracks, plus every
		// shipped worker track shifted onto the master clock by that
		// worker's offset estimate (track group = worker name).
		tl := rec.Snapshot()
		tl.Meta["scheme"] = cfg.Scheme.Name()
		tl.Meta["resolution"] = fmt.Sprintf("%dx%d", cfg.W, cfg.H)
		tl.Meta["frames"] = fmt.Sprintf("[%d,%d)", cfg.StartFrame, cfg.EndFrame)
		for i := range shipped.Tracks {
			td := &shipped.Tracks[i]
			tl.AddTrack(td.Name, td.Events, td.Dropped)
		}
		for name, est := range offsets {
			// Shift the group the worker actually shipped tracks under;
			// a worker that never shipped any has nothing to shift, and
			// its offset is omitted as noise.
			group, ok := tlGroups[name]
			if !ok {
				continue
			}
			tl.Shift(group, est.Offset())
			tl.Meta["offset/"+group] = fmt.Sprintf("%dns (%s)", est.Offset(), est.Quality())
		}
		tl.Sort()
		res.Timeline = tl
	}
	if cfg.Emit != nil {
		for i, img := range res.Frames {
			// Remote-sink DFB runs hold no frames at the master — the
			// nowcompose daemons emit them at their end instead.
			if img == nil {
				continue
			}
			if err := cfg.Emit(cfg.StartFrame+i, img); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// RenderLocal runs the farm with in-process goroutine workers connected
// by channel pipes — the wall-clock counterpart of RenderVirtual, and a
// live exercise of the full wire protocol. With cfg.WrapConn set, each
// worker's end of its pipe is wrapped (fault injection), and worker
// exit errors are tolerated: under injected faults a worker dying is the
// scenario, not a failure — the master's result is the verdict.
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
	if cfg.DFB != nil && len(cfg.DFB.Addrs) == 0 && cfg.DFB.Sinks > 0 {
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
		dfb.Addrs = make([]string, n)
		for i := range dfb.Addrs {
			dfb.Addrs[i] = compositor.Addr(i)
		}
		if dfb.Dial == nil {
			dfb.Dial = reg.Dial
		}
		dfb.collect = func(f int) *fb.Framebuffer {
			cmu.Lock()
			defer cmu.Unlock()
			return collected[f-startFrame]
		}
		cfg.DFB = &dfb
		cfg.OnFrame = nil // the sinks own frame delivery now
		opts.SinkDial = dfb.Dial
	}
	hub := msg.NewHub()
	errCh := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		masterEnd, workerEnd := msg.Pipe(64)
		name := fmt.Sprintf("worker%02d", i)
		if err := hub.Attach(name, masterEnd); err != nil {
			return nil, err
		}
		conn := workerEnd
		if cfg.WrapConn != nil {
			conn = cfg.WrapConn(name, workerEnd)
		}
		go func(name string, conn msg.Conn) {
			err := RunWorkerWithOptions(context.Background(), name, conn, cfg.Scene, opts)
			// Close the worker's end however it exited, so the hub posts
			// its TagDown promptly instead of the master waiting out a
			// stall deadline on a silently-departed worker.
			conn.Close()
			errCh <- err
		}(name, conn)
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
	if workerErr != nil && cfg.WrapConn == nil {
		return nil, fmt.Errorf("farm: worker failed: %w", workerErr)
	}
	return res, nil
}
