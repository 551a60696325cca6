package farm

import (
	"fmt"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/wire"
)

// Message tags of the farm protocol (the PVM msgtag space).
const (
	// TagHello announces a worker to the master (payload: hello).
	TagHello = iota + 1
	// TagTask assigns a task (payload: encoded task + options).
	TagTask
	// TagFrameDone carries one rendered frame region and its statistics.
	TagFrameDone
	// TagTruncate tells a worker to stop its current task early
	// (payload: taskEnd, the new exclusive end frame).
	TagTruncate
	// TagTruncateAck reports where the worker actually stopped.
	TagTruncateAck
	// TagTaskDone reports a finished task (payload: taskEnd).
	TagTaskDone
	// TagShutdown tells a worker to exit.
	TagShutdown
	// TagSceneSDL ships scene source to a remote worker (`now worker`)
	// ahead of the protocol (payload: SceneMsg); in-process workers share
	// the scene directly.
	TagSceneSDL
	// TagBye announces a worker's graceful departure (payload: taskEnd,
	// the stop frame; -1, 0 when idle): the worker finished its in-flight
	// frame and is about to close its connection. The master requeues the
	// rest of its task without treating the exit as a failure.
	TagBye
	// TagPing is the master's heartbeat (payload: ping, a sequence
	// number and the master's timeline clock in ns — 0 with no recorder). Workers
	// answer between frames, so a pong proves the render loop is alive,
	// not merely the connection.
	TagPing
	// TagPong answers a ping with its sequence and master clock stamp
	// plus the worker's own recorder clock (see pong), so the
	// master can estimate per-worker clock offsets from the round trip.
	TagPong
	// TagFrameAck is the control half of a DFB frame result: the pixels
	// went straight to a compositor sink, and this small ack
	// carries the per-frame statistics and timeline piggyback the master
	// would otherwise have read off TagFrameDone. The master does NOT
	// mark the frame delivered on it — only the sink's confirmation does
	// that, so a result lost between worker and sink is still requeued.
	TagFrameAck
	// TagOSStats ships a task's accumulated object-space forwarding
	// statistics (payload: objspace.StatsMsg), once per task,
	// ahead of the result of the task's last frame so that they are in
	// before the master can see the run complete (ahead of TagTaskDone
	// when a truncate ended the task between frames). Sent only by
	// object-space tasks (OSShards >= 2).
	TagOSStats
)

// ProtocolVersion is the farm wire protocol this build speaks: the
// layouts from the hello on — hello, task, pong and frame result, below
// and in internal/wire. Master and workers are built from one commit, so
// the hello carries this one number instead of a capability set, and
// the master refuses any other value. Bump it whenever one of those
// layouts changes. The scene bootstrap a TCP master sends before the
// hello (SceneMsg) is outside it.
const ProtocolVersion = 4

// Task wire flags, frame kinds, encodings, and codec types all live in
// internal/wire (shared with the compositor subsystem); the farm keeps
// these aliases so the protocol reads in one place.
const (
	capWireDelta     = wire.CapDelta
	capWireTimeline  = wire.CapTimeline
	capWireSpanCodec = wire.CapSpanCodec
	wireFlagsMask    = capWireDelta | capWireTimeline | capWireSpanCodec

	frameDelta = wire.KindDelta

	encRaw  = wire.EncRaw
	encSpan = wire.EncSpan
)

// frameDoneMsg is the wire form of one completed frame region.
type frameDoneMsg = wire.FrameDone

// wireEvent is one shipped timeline event.
type wireEvent = wire.TLEvent

// frameEncoder builds TagFrameDone payloads (key-frame vs delta choice,
// optional compression) with reusable scratch.
type frameEncoder = wire.Encoder

// hello is the TagHello payload: the protocol version the worker
// speaks, then its name. The version comes first so that no other
// build's hello — whatever it packed after its name — can parse as this
// one. The master names a worker by its hub attachment and does not
// read this name.
type hello struct {
	Version int
	Name    string
}

func (h *hello) Fields(b *msg.Buffer) {
	b.Int(&h.Version)
	b.String(&h.Name)
}

// Validate refuses a hello in another protocol version.
func (h *hello) Validate() error {
	if h.Version != ProtocolVersion {
		return fmt.Errorf("speaks protocol version %d", h.Version)
	}
	return nil
}

// maxTaskDim bounds task resolution and frame numbers accepted off the
// wire, so a corrupt-but-checksummed task cannot make a worker allocate
// an absurd framebuffer.
const maxTaskDim = wire.MaxDim

// taskMsg is the wire form of a task assignment.
type taskMsg struct {
	Task      partition.Task
	W, H      int
	Coherence bool
	Samples   int
	// AAThreshold is the tracer's adaptive antialiasing (trace.Options);
	// it changes pixels, so every render branch of the frame step and the
	// master's quarantine render apply it.
	AAThreshold float64
	// Threads bounds the worker's intra-frame tile pool; 0 lets the
	// worker use all its cores. Pixels are thread-count-invariant, so
	// this is purely a speed knob.
	Threads int
	// WireFlags says how this task's results are encoded (capWire*),
	// straight from the master's config; zero = plain full frames.
	WireFlags int
	// Sinks, when non-empty, turns the distributed framebuffer on: the
	// worker ships pixels to these compositor sinks and derives the
	// frame→sink shard map (partition.ShardMap) from them and the job's
	// absolute frame range [JobStart, JobEnd).
	JobStart, JobEnd int
	Sinks            []string
	// OSShards, when >= 2, makes the worker render through an objspace
	// partition of that many slabs instead of a replicated grid; 0 is
	// the replicated path. Pixels are byte-identical either way.
	OSShards int
}

// maxSinks bounds the sink list accepted off the wire.
const maxSinks = 1024

func (t *taskMsg) Fields(b *msg.Buffer) {
	b.Int(&t.Task.ID)
	wire.RectFields(b, &t.Task.Region)
	b.Int(&t.Task.StartFrame)
	b.Int(&t.Task.EndFrame)
	b.Int(&t.W)
	b.Int(&t.H)
	b.Bool(&t.Coherence)
	b.Int(&t.Samples)
	b.Float(&t.AAThreshold)
	b.Int(&t.Threads)
	b.Int(&t.WireFlags)
	b.Int(&t.JobStart)
	b.Int(&t.JobEnd)
	msg.List(b, &t.Sinks, maxSinks, 8)
	for i := range t.Sinks {
		b.String(&t.Sinks[i])
	}
	b.Int(&t.OSShards)
}

// Validate rejects task assignments whose geometry cannot have come from
// a sane master: non-positive resolution, a region outside the
// framebuffer, or an empty/inverted frame range.
func (t *taskMsg) Validate() error {
	if t.W <= 0 || t.H <= 0 || t.W > maxTaskDim || t.H > maxTaskDim {
		return fmt.Errorf("resolution %dx%d", t.W, t.H)
	}
	r := t.Task.Region
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > t.W || r.Y1 > t.H || r.X0 >= r.X1 || r.Y0 >= r.Y1 {
		return fmt.Errorf("region %v outside %dx%d", r, t.W, t.H)
	}
	if t.Task.StartFrame < 0 || t.Task.EndFrame <= t.Task.StartFrame || t.Task.EndFrame > maxTaskDim {
		return fmt.Errorf("frame range [%d,%d)", t.Task.StartFrame, t.Task.EndFrame)
	}
	if t.Samples < 0 || t.Threads < 0 {
		return fmt.Errorf("options (samples %d, threads %d)", t.Samples, t.Threads)
	}
	if err := validateAA(t.AAThreshold); err != nil {
		return err
	}
	if t.WireFlags&^wireFlagsMask != 0 {
		return fmt.Errorf("unknown wire flags %#x", t.WireFlags)
	}
	if len(t.Sinks) > 0 && (t.JobStart < 0 || t.JobEnd > maxTaskDim ||
		t.JobStart > t.Task.StartFrame || t.Task.EndFrame > t.JobEnd) {
		return fmt.Errorf("DFB job range [%d,%d) does not contain task range [%d,%d)",
			t.JobStart, t.JobEnd, t.Task.StartFrame, t.Task.EndFrame)
	}
	if t.OSShards != 0 && (t.OSShards < 2 || t.OSShards > objspace.MaxShards) {
		return fmt.Errorf("object-space shard count %d outside [2,%d]", t.OSShards, objspace.MaxShards)
	}
	return nil
}

// validateAA bounds the antialiasing threshold, for the master's config
// and the worker's task message alike. The range test is negated so that
// NaN fails it too.
func validateAA(threshold float64) error {
	if !(threshold >= 0 && threshold <= 1) {
		return fmt.Errorf("antialiasing threshold %v outside [0,1]", threshold)
	}
	return nil
}

// taskEnd names a task and the frame it ends before: the payload of
// TagTruncate (the new end), TagTruncateAck and TagBye (where the worker
// stops; -1, 0 from an idle worker's bye) and TagTaskDone (where it
// stopped).
type taskEnd struct{ Task, End int }

func (e *taskEnd) Fields(b *msg.Buffer) {
	b.Int(&e.Task)
	b.Int(&e.End)
}

// ping is the TagPing payload: a sequence number and the master's
// timeline clock (0 with no recorder).
type ping struct {
	Seq      int
	MasterNs int64
}

func (p *ping) Fields(b *msg.Buffer) {
	b.Int(&p.Seq)
	b.Int64(&p.MasterNs)
}

// pong is the TagPong payload: the ping echoed back, plus the worker's
// own recorder clock (0 = no timeline clock).
type pong struct {
	ping
	WorkerNs int64
}

func (p *pong) Fields(b *msg.Buffer) {
	p.ping.Fields(b)
	b.Int64(&p.WorkerNs)
}

// frameAckMsg is the TagFrameAck payload: everything TagFrameDone
// carries except the pixels, which went to a compositor sink directly.
// The timeline piggyback rides the ack (not the pix message) so the
// master's clock-correcting merge keeps working under DFB.
type frameAckMsg struct {
	TaskID int
	Frame  int
	Region fb.Rect
	// Kind and Encoding are the wire.Kind*/wire.Enc* the worker shipped;
	// Sink the sink index it shipped to; SinkBytes the encoded payload
	// size on the sink link.
	Kind      int
	Encoding  int
	Sink      int
	SinkBytes int
	// Per-frame render statistics, mirroring frameDoneMsg.
	Rendered  int
	Copied    int
	Regs      uint64
	Rays      stats.RayCounters
	ElapsedNs int64
	// Timeline piggyback (optional trailing section; see
	// wire.TimelineFields).
	TLNow    int64
	TLTracks []string
	TLEvents []wireEvent
}

func (a *frameAckMsg) Fields(b *msg.Buffer) {
	b.Int(&a.TaskID)
	b.Int(&a.Frame)
	wire.RectFields(b, &a.Region)
	b.Int(&a.Kind)
	b.Int(&a.Encoding)
	b.Int(&a.Sink)
	b.Int(&a.SinkBytes)
	b.Int(&a.Rendered)
	b.Int(&a.Copied)
	b.Uint64(&a.Regs)
	for k := range a.Rays.ByKind {
		b.Uint64(&a.Rays.ByKind[k])
	}
	b.Int64(&a.ElapsedNs)
	if b.More(len(a.TLTracks) > 0 || a.TLNow != 0) {
		wire.TimelineFields(b, &a.TLNow, &a.TLTracks, &a.TLEvents)
	}
}

func (a *frameAckMsg) Validate() error {
	if a.Frame < 0 || a.Frame > maxTaskDim || a.Sink < 0 || a.Sink >= maxSinks || a.SinkBytes < 0 {
		return fmt.Errorf("fields (frame %d, sink %d)", a.Frame, a.Sink)
	}
	return wire.ValidateTimeline(a.TLTracks, a.TLEvents)
}

// SceneMsg is the TagSceneSDL payload: a scene spec's kind and source
// (scenes.SpecPayload), which a TCP master ships each remote worker
// before the worker's hello.
type SceneMsg struct{ Kind, Source string }

func (s *SceneMsg) Fields(b *msg.Buffer) {
	b.String(&s.Kind)
	b.String(&s.Source)
}
