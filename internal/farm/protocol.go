package farm

import (
	"fmt"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	vm "nowrender/internal/vecmath"
	"nowrender/internal/wire"
)

// Message tags of the farm protocol (the PVM msgtag space).
const (
	// TagHello announces a worker to the master (payload: protocol
	// version and name; see encodeHello).
	TagHello = iota + 1
	// TagTask assigns a task (payload: encoded task + options).
	TagTask
	// TagFrameDone carries one rendered frame region and its statistics.
	TagFrameDone
	// TagTruncate tells a worker to stop its current task early
	// (payload: task id, new exclusive end frame).
	TagTruncate
	// TagTruncateAck reports where the worker actually stopped.
	TagTruncateAck
	// TagTaskDone reports a finished task (payload: task id, end frame).
	TagTaskDone
	// TagShutdown tells a worker to exit.
	TagShutdown
	// TagSceneSDL ships scene source to a remote worker (cmd/nowworker);
	// in-process workers share the scene directly.
	TagSceneSDL
	// TagBye announces a worker's graceful departure (payload: task id,
	// stop frame; -1, 0 when idle): the worker finished its in-flight
	// frame and is about to close its connection. The master requeues the
	// rest of its task without treating the exit as a failure.
	TagBye
	// TagPing is the master's heartbeat (payload: sequence number, then
	// the master's timeline clock in ns — 0 with no recorder). Workers
	// answer between frames, so a pong proves the render loop is alive,
	// not merely the connection.
	TagPing
	// TagPong answers a ping with its sequence and master clock stamp
	// plus the worker's own recorder clock (see encodePong), so the
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
	// statistics (payload: sealed objspace.EncodeStats), once per task,
	// ahead of the result of the task's last frame so that they are in
	// before the master can see the run complete (ahead of TagTaskDone
	// when a truncate ended the task between frames). Sent only by
	// object-space tasks (OSShards >= 2).
	TagOSStats
)

// ProtocolVersion is the farm wire protocol this build speaks: the
// hello, task, pong and frame-result layouts below and in internal/wire.
// Master and workers are built from one commit, so the hello carries
// this one number instead of a capability set, and the master refuses
// any other value. Bump it whenever a layout changes.
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

func encodeFrameDone(m frameDoneMsg) []byte { return wire.EncodeFrameDone(m) }

func decodeFrameDone(data []byte) (frameDoneMsg, error) { return wire.DecodeFrameDone(data) }

// encodeHello packs a worker's hello: the protocol version it speaks,
// then its name. The version comes first so that no other build's hello
// — whatever it packed after its name — can parse as this one.
func encodeHello(name string) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(ProtocolVersion)
	b.PackString(name)
	return b.Sealed()
}

// decodeHello extracts the worker's self-reported name, refusing a
// hello that does not parse or speaks another protocol version. The
// name matters over TCP, where the master's hub names (tcp00, tcp01,
// ...) differ from the -name a worker introduces itself to compositor
// sinks with; sink confirmations carry the latter, and the master maps
// them back.
func decodeHello(data []byte) (string, error) {
	unparsed := fmt.Errorf("hello does not parse as protocol version %d (a version-1 or foreign build)", ProtocolVersion)
	body, err := msg.Open(data)
	if err != nil {
		return "", unparsed
	}
	b := msg.FromBytes(body)
	version := b.UnpackInt()
	name := b.UnpackString()
	if b.Err() != nil || b.Len() != 0 {
		return "", unparsed
	}
	if version != ProtocolVersion {
		return "", fmt.Errorf("hello speaks protocol version %d, this master speaks version %d", version, ProtocolVersion)
	}
	return name, nil
}

// maxTaskDim bounds task resolution and frame numbers accepted off the
// wire, so a corrupt-but-checksummed task cannot make a worker allocate
// an absurd framebuffer.
const maxTaskDim = wire.MaxDim

// validate rejects task assignments whose geometry cannot have come from
// a sane master: non-positive resolution, a region outside the
// framebuffer, or an empty/inverted frame range.
func (t taskMsg) validate() error {
	if t.W <= 0 || t.H <= 0 || t.W > maxTaskDim || t.H > maxTaskDim {
		return fmt.Errorf("farm: bad task resolution %dx%d", t.W, t.H)
	}
	r := t.Task.Region
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > t.W || r.Y1 > t.H || r.X0 >= r.X1 || r.Y0 >= r.Y1 {
		return fmt.Errorf("farm: task region %v outside %dx%d", r, t.W, t.H)
	}
	if t.Task.StartFrame < 0 || t.Task.EndFrame <= t.Task.StartFrame || t.Task.EndFrame > maxTaskDim {
		return fmt.Errorf("farm: bad task frame range [%d,%d)", t.Task.StartFrame, t.Task.EndFrame)
	}
	if t.Samples < 0 || t.Threads < 0 {
		return fmt.Errorf("farm: bad task options (samples %d, threads %d)", t.Samples, t.Threads)
	}
	if err := validateAA(t.AAThreshold); err != nil {
		return err
	}
	if t.WireFlags&^wireFlagsMask != 0 {
		return fmt.Errorf("farm: unknown wire flags %#x", t.WireFlags)
	}
	if len(t.Sinks) > 0 && (t.JobStart < 0 || t.JobEnd > maxTaskDim ||
		t.JobStart > t.Task.StartFrame || t.Task.EndFrame > t.JobEnd) {
		return fmt.Errorf("farm: DFB job range [%d,%d) does not contain task range [%d,%d)",
			t.JobStart, t.JobEnd, t.Task.StartFrame, t.Task.EndFrame)
	}
	if t.OSShards != 0 && (t.OSShards < 2 || t.OSShards > objspace.MaxShards) {
		return fmt.Errorf("farm: object-space shard count %d outside [2,%d]", t.OSShards, objspace.MaxShards)
	}
	return nil
}

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

// validateAA bounds the antialiasing threshold, for the master's config
// and the worker's task message alike. The range test is negated so that
// NaN fails it too.
func validateAA(threshold float64) error {
	if !(threshold >= 0 && threshold <= 1) {
		return fmt.Errorf("farm: antialiasing threshold %v outside [0,1]", threshold)
	}
	return nil
}

func encodeTask(t taskMsg) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(t.Task.ID))
	b.PackInt(int64(t.Task.Region.X0))
	b.PackInt(int64(t.Task.Region.Y0))
	b.PackInt(int64(t.Task.Region.X1))
	b.PackInt(int64(t.Task.Region.Y1))
	b.PackInt(int64(t.Task.StartFrame))
	b.PackInt(int64(t.Task.EndFrame))
	b.PackInt(int64(t.W))
	b.PackInt(int64(t.H))
	b.PackBool(t.Coherence)
	b.PackInt(int64(t.Samples))
	b.PackFloat(t.AAThreshold)
	b.PackInt(int64(t.Threads))
	b.PackInt(int64(t.WireFlags))
	b.PackInt(int64(t.JobStart))
	b.PackInt(int64(t.JobEnd))
	b.PackInt(int64(len(t.Sinks)))
	for _, s := range t.Sinks {
		b.PackString(s)
	}
	b.PackInt(int64(t.OSShards))
	return b.Sealed()
}

func decodeTask(data []byte) (taskMsg, error) {
	body, err := msg.Open(data)
	if err != nil {
		return taskMsg{}, fmt.Errorf("farm: bad task message: %w", err)
	}
	b := msg.FromBytes(body)
	var t taskMsg
	t.Task.ID = int(b.UnpackInt())
	// Argument evaluation is left to right, matching the packed order
	// X0, Y0, X1, Y1.
	t.Task.Region = fb.NewRect(int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()))
	t.Task.StartFrame = int(b.UnpackInt())
	t.Task.EndFrame = int(b.UnpackInt())
	t.W = int(b.UnpackInt())
	t.H = int(b.UnpackInt())
	t.Coherence = b.UnpackBool()
	t.Samples = int(b.UnpackInt())
	t.AAThreshold = b.UnpackFloat()
	t.Threads = int(b.UnpackInt())
	t.WireFlags = int(b.UnpackInt())
	t.JobStart = int(b.UnpackInt())
	t.JobEnd = int(b.UnpackInt())
	// Each sink address costs at least its 8-byte length prefix, which
	// bounds the allocation against the remaining payload.
	n := int(b.UnpackInt())
	if n < 0 || n > maxSinks || n > b.Len()/8 {
		return taskMsg{}, fmt.Errorf("farm: bad DFB sink count %d", n)
	}
	if n > 0 {
		t.Sinks = make([]string, n)
		for i := range t.Sinks {
			t.Sinks[i] = b.UnpackString()
		}
	}
	t.OSShards = int(b.UnpackInt())
	if err := b.Err(); err != nil {
		return taskMsg{}, fmt.Errorf("farm: bad task message: %w", err)
	}
	if b.Len() != 0 {
		return taskMsg{}, fmt.Errorf("farm: %d trailing bytes in task message", b.Len())
	}
	if err := t.validate(); err != nil {
		return taskMsg{}, err
	}
	return t, nil
}

// encodePair packs two integers (used by truncate/ack/task-done/ping).
func encodePair(a, b int) []byte {
	buf := msg.GetBuffer()
	defer buf.Release()
	buf.PackInt(int64(a))
	buf.PackInt(int64(b))
	return buf.Sealed()
}

// encodePong packs a worker's heartbeat answer: the ping's sequence and
// master clock stamp echoed back, plus the worker's own recorder clock
// (0 = no timeline clock).
func encodePong(seq int, masterNs, workerNs int64) []byte {
	buf := msg.GetBuffer()
	defer buf.Release()
	buf.PackInt(int64(seq))
	buf.PackInt(masterNs)
	buf.PackInt(workerNs)
	return buf.Sealed()
}

func decodePong(data []byte) (seq int, masterNs, workerNs int64, err error) {
	body, err := msg.Open(data)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("farm: bad pong message: %w", err)
	}
	b := msg.FromBytes(body)
	seq = int(b.UnpackInt())
	masterNs = b.UnpackInt()
	workerNs = b.UnpackInt()
	if err := b.Err(); err != nil {
		return 0, 0, 0, fmt.Errorf("farm: bad pong message: %w", err)
	}
	if b.Len() != 0 {
		return 0, 0, 0, fmt.Errorf("farm: %d trailing bytes in pong message", b.Len())
	}
	return seq, masterNs, workerNs, nil
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
	// Timeline piggyback (optional trailing section; see wire.PackTL).
	TLNow    int64
	TLTracks []string
	TLEvents []wireEvent
}

func encodeFrameAck(a frameAckMsg) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(a.TaskID))
	b.PackInt(int64(a.Frame))
	b.PackInt(int64(a.Region.X0))
	b.PackInt(int64(a.Region.Y0))
	b.PackInt(int64(a.Region.X1))
	b.PackInt(int64(a.Region.Y1))
	b.PackInt(int64(a.Kind))
	b.PackInt(int64(a.Encoding))
	b.PackInt(int64(a.Sink))
	b.PackInt(int64(a.SinkBytes))
	b.PackInt(int64(a.Rendered))
	b.PackInt(int64(a.Copied))
	b.PackInt(int64(a.Regs))
	for k := 0; k < vm.NumRayKinds; k++ {
		b.PackInt(int64(a.Rays.ByKind[k]))
	}
	b.PackInt(a.ElapsedNs)
	if len(a.TLTracks) > 0 || a.TLNow != 0 {
		wire.PackTL(b, a.TLNow, a.TLTracks, a.TLEvents)
	}
	return b.Sealed()
}

func decodeFrameAck(data []byte) (frameAckMsg, error) {
	body, err := msg.Open(data)
	if err != nil {
		return frameAckMsg{}, fmt.Errorf("farm: bad frame ack: %w", err)
	}
	b := msg.FromBytes(body)
	var a frameAckMsg
	a.TaskID = int(b.UnpackInt())
	a.Frame = int(b.UnpackInt())
	a.Region = fb.NewRect(int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()))
	a.Kind = int(b.UnpackInt())
	a.Encoding = int(b.UnpackInt())
	a.Sink = int(b.UnpackInt())
	a.SinkBytes = int(b.UnpackInt())
	a.Rendered = int(b.UnpackInt())
	a.Copied = int(b.UnpackInt())
	a.Regs = uint64(b.UnpackInt())
	for k := 0; k < vm.NumRayKinds; k++ {
		a.Rays.ByKind[k] = uint64(b.UnpackInt())
	}
	a.ElapsedNs = b.UnpackInt()
	if b.Err() == nil && b.Len() > 0 {
		a.TLNow, a.TLTracks, a.TLEvents, err = wire.UnpackTL(b)
		if err != nil {
			return frameAckMsg{}, fmt.Errorf("farm: bad frame ack: %w", err)
		}
	}
	if err := b.Err(); err != nil {
		return frameAckMsg{}, fmt.Errorf("farm: bad frame ack: %w", err)
	}
	if a.Frame < 0 || a.Frame > maxTaskDim || a.Sink < 0 || a.Sink >= maxSinks || a.SinkBytes < 0 {
		return frameAckMsg{}, fmt.Errorf("farm: bad frame ack fields (frame %d, sink %d)", a.Frame, a.Sink)
	}
	return a, nil
}

func decodePair(data []byte) (int, int, error) {
	body, err := msg.Open(data)
	if err != nil {
		return 0, 0, fmt.Errorf("farm: bad pair message: %w", err)
	}
	b := msg.FromBytes(body)
	x := int(b.UnpackInt())
	y := int(b.UnpackInt())
	if err := b.Err(); err != nil {
		return 0, 0, fmt.Errorf("farm: bad pair message: %w", err)
	}
	return x, y, nil
}
