// Package timeline is the cluster-wide event recorder behind the
// -timeline flags: a lock-cheap, bounded ring-buffer of span and instant
// events instrumenting the render core (per-frame, per-tile, coherence
// change detection), the farm master (dispatch, heartbeats, retries,
// speculation, delta apply/base-miss) and workers (recv/render/encode/
// send phases).
//
// # Concurrency and cost model
//
// A Recorder hands out Tracks; every Track is single-writer — owned by
// exactly one goroutine at a time, with ownership handed over only
// across an existing synchronisation point (the tile pool's WaitGroup
// barrier, a channel send). Appending an event is therefore a plain
// ring-buffer store: no locks, no atomics. A disabled recorder is a nil
// *Recorder (and hands out nil Tracks), and every method is a nil-check
// away from returning — the disabled path costs a single branch, which
// is what lets the per-tile hot path stay instrumented unconditionally.
//
// Records are compact (an Event is 40 bytes) and each track's ring is
// bounded, so a runaway run overwrites its own oldest events instead of
// growing without bound; Dropped counts what was lost.
//
// Worker-side tracks are shipped to the master over the wire (see the
// farm package's capWireTimeline) and merged into one cluster timeline
// with per-worker clock-offset correction (OffsetEstimator). The merged
// Timeline exports Chrome trace-event JSON loadable in Perfetto and
// feeds the cmd/nowtrace analyzer.
package timeline

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Op identifies what a span or instant event measures.
type Op uint16

const (
	// OpNone is the zero op; the analyzer ignores it.
	OpNone Op = iota
	// OpFrame spans one frame render on a worker (render phase).
	OpFrame
	// OpTile spans one tile of the intra-frame pool.
	OpTile
	// OpChangeDetect spans the coherence engine's between-frame change
	// detection (markChanges + block dilation).
	OpChangeDetect
	// OpRecv spans a worker waiting for work from the master.
	OpRecv
	// OpEncode spans frame-result encoding (delta/span codec) on a worker
	// (arg>>2 = encoded message bytes, arg&3 = the chosen codec,
	// wire.Enc* — raw 0, span 2).
	OpEncode
	// OpSend spans shipping a frame result back to the master.
	OpSend
	// OpDispatch marks the master assigning a task (arg = task id,
	// frame = the task's start frame).
	OpDispatch
	// OpResult marks the master receiving a frame result (arg = wire
	// bytes).
	OpResult
	// OpTaskDone marks the master receiving a task completion (arg =
	// task id).
	OpTaskDone
	// OpRetire marks the master retiring a worker.
	OpRetire
	// OpRequeue marks frames requeued after a loss (frame = run start,
	// arg = frames requeued).
	OpRequeue
	// OpQuarantine spans the master rendering a poisoned frame locally.
	OpQuarantine
	// OpSteal marks an adaptive subdivision (truncate sent).
	OpSteal
	// OpSpeculate marks a speculative task re-issue (arg = task id).
	OpSpeculate
	// OpPing marks a heartbeat ping sent (arg = sequence).
	OpPing
	// OpDeltaApply marks a dirty-span delta applied (arg = span count).
	OpDeltaApply
	// OpBaseMiss marks a delta discarded because its base was lost.
	OpBaseMiss
	// OpAck marks a DFB control ack: the master learning a worker shipped
	// a frame result to a compositor sink (arg = sink payload bytes).
	OpAck
	// OpSinkAssemble is a compositor sink merging one frame result into
	// its shard assembly (arg = payload bytes).
	OpSinkAssemble
	// OpSinkDeliver marks the master processing a sink's delivery
	// confirmation (arg = frame).
	OpSinkDeliver
	// OpNeedKey marks a compositor asking a worker for a fresh key-frame
	// after a base miss (arg = frame).
	OpNeedKey
	// OpEnqueue marks a job admitted to the service queue (arg = job
	// sequence number).
	OpEnqueue
	// OpAdmit marks the scheduler dispatching a queued job into a
	// concurrency slot (arg = job sequence number).
	OpAdmit
	// OpQueueWait spans a job's time on the queue, enqueue to admit —
	// what nowtrace charges to queueing rather than rendering.
	OpQueueWait
	// OpLease marks the scheduler leasing worker slots from the fleet
	// pool for a farm run (arg = slots granted).
	OpLease
	// OpCoalesce marks a frame request joining another job's in-flight
	// render instead of starting its own (arg = frame).
	OpCoalesce
	// OpDrain marks the service entering drain: admission stopped,
	// running jobs finishing.
	OpDrain
	// OpLeaseRenew marks the fleet broker renewing a replica's worker
	// lease (arg = lease id).
	OpLeaseRenew
	// OpLeaseExpire marks the fleet broker expiring a lease whose
	// replica stopped renewing, returning its units (arg = lease id).
	OpLeaseExpire
	// OpForward spans the object-space forwarding work of one frame on a
	// worker: rays that left their shard and were serialized to the next
	// shard owner (arg = rays forwarded this frame).
	OpForward
	opCount
)

var opNames = [...]string{
	OpNone:         "none",
	OpFrame:        "frame",
	OpTile:         "tile",
	OpChangeDetect: "change-detect",
	OpRecv:         "recv",
	OpEncode:       "encode",
	OpSend:         "send",
	OpDispatch:     "dispatch",
	OpResult:       "result",
	OpTaskDone:     "task-done",
	OpRetire:       "retire",
	OpRequeue:      "requeue",
	OpQuarantine:   "quarantine",
	OpSteal:        "steal",
	OpSpeculate:    "speculate",
	OpPing:         "ping",
	OpDeltaApply:   "delta-apply",
	OpBaseMiss:     "base-miss",
	OpAck:          "ack",
	OpSinkAssemble: "sink-assemble",
	OpSinkDeliver:  "sink-deliver",
	OpNeedKey:      "need-key",
	OpEnqueue:      "enqueue",
	OpAdmit:        "admit",
	OpQueueWait:    "queue-wait",
	OpLease:        "lease",
	OpCoalesce:     "coalesce",
	OpDrain:        "drain",
	OpLeaseRenew:   "lease-renew",
	OpLeaseExpire:  "lease-expire",
	OpForward:      "forward",
}

// String returns the op's stable name (also the Chrome trace event
// name; OpFromString inverts it).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// OpFromString maps a stable op name back to its Op (OpNone when
// unknown) — the import half of the Chrome trace round trip.
func OpFromString(s string) Op {
	for o, n := range opNames {
		if n == s {
			return Op(o)
		}
	}
	return OpNone
}

// Event is one timeline record: a span when Dur > 0 (or a zero-length
// span), an instant when Dur < 0. Timestamps are nanoseconds on the
// owning recorder's clock (time since its epoch, or virtual time in the
// virtual driver); merged cluster timelines shift worker events onto
// the master's clock.
type Event struct {
	Start int64 // ns since the recorder epoch
	Dur   int64 // span duration in ns; instantDur marks an instant
	Op    Op
	Frame int32 // frame number, -1 when not frame-scoped
	Arg   int64 // op-specific argument (see the Op docs)
}

// instantDur is the Dur sentinel distinguishing instants from
// zero-length spans.
const instantDur = -1

// Instant reports whether the event is an instant rather than a span.
func (e Event) Instant() bool { return e.Dur < 0 }

// End returns the span's end timestamp (Start for instants).
func (e Event) End() int64 {
	if e.Dur > 0 {
		return e.Start + e.Dur
	}
	return e.Start
}

// DefaultTrackCap is the per-track ring capacity when New is given a
// non-positive one: enough for thousands of frames of phase spans
// while keeping a track under 256 KiB.
const DefaultTrackCap = 1 << 13

// Recorder owns the clock and the set of tracks of one process's
// timeline. A nil *Recorder is the disabled recorder: it hands out nil
// Tracks and every method returns immediately.
type Recorder struct {
	epoch    time.Time
	trackCap int
	// clock, when set, replaces the wall clock (see SetClock).
	clock func() int64

	mu     sync.Mutex
	tracks []*Track
	byName map[string]*Track
}

// New creates an enabled recorder whose clock starts now. capPerTrack
// bounds each track's ring; <= 0 selects DefaultTrackCap.
func New(capPerTrack int) *Recorder {
	if capPerTrack <= 0 {
		capPerTrack = DefaultTrackCap
	}
	return &Recorder{
		epoch:    time.Now(),
		trackCap: capPerTrack,
		byName:   make(map[string]*Track),
	}
}

// SetClock makes the recorder read time from now (nanoseconds) instead
// of the wall clock, so code instrumented with Begin/End/Instant stamps
// its events on a simulated clock unchanged. The farm's virtual driver
// is the one caller: its master loop is the real one, running on the
// virtual NOW's clock. Call it before any track records. No-op on the
// disabled recorder.
func (r *Recorder) SetClock(now func() int64) {
	if r != nil {
		r.clock = now
	}
}

// Now returns the recorder clock in nanoseconds since its epoch (0 on
// the disabled recorder).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	if r.clock != nil {
		return r.clock()
	}
	return int64(time.Since(r.epoch))
}

// Track returns the named track, creating it on first use. Track names
// are paths: the element before the first '/' is the group (a worker
// name, "master") the analyzer and the Chrome exporter aggregate by.
// Returns nil on the disabled recorder. Safe to call from any
// goroutine; the returned track must then be written by one goroutine
// at a time.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := &Track{rec: r, name: name, buf: make([]Event, r.trackCap)}
	r.byName[name] = t
	r.tracks = append(r.tracks, t)
	return t
}

// Track is one single-writer event ring. The zero of *Track (nil) is a
// disabled track: every method is a single branch.
type Track struct {
	rec   *Recorder
	name  string
	buf   []Event
	n     uint64 // events ever appended
	taken uint64 // low-water mark consumed by TakeNew
}

// Name returns the track's name ("" on a nil track).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Begin samples the recorder clock for a span about to be measured.
// On a nil track it returns 0 without reading the clock — the whole
// disabled span costs two branches.
func (t *Track) Begin() int64 {
	if t == nil {
		return 0
	}
	return t.rec.Now()
}

// End appends a span from start (a Begin result) to now.
func (t *Track) End(op Op, frame int, start int64) {
	if t == nil {
		return
	}
	t.append(Event{Start: start, Dur: t.rec.Now() - start, Op: op, Frame: int32(frame)})
}

// EndArg is End with an op-specific argument.
func (t *Track) EndArg(op Op, frame int, start, arg int64) {
	if t == nil {
		return
	}
	t.append(Event{Start: start, Dur: t.rec.Now() - start, Op: op, Frame: int32(frame), Arg: arg})
}

// Span appends a span with explicit timestamps — for events whose times
// the caller already holds: the virtual NOW's per-machine clocks, the
// service's queue-wait intervals.
func (t *Track) Span(op Op, frame int, start, end, arg int64) {
	if t == nil {
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	t.append(Event{Start: start, Dur: d, Op: op, Frame: int32(frame), Arg: arg})
}

// Instant appends an instant event at now.
func (t *Track) Instant(op Op, frame int, arg int64) {
	if t == nil {
		return
	}
	t.append(Event{Start: t.rec.Now(), Dur: instantDur, Op: op, Frame: int32(frame), Arg: arg})
}

// InstantAt appends an instant with an explicit timestamp.
func (t *Track) InstantAt(op Op, frame int, at, arg int64) {
	if t == nil {
		return
	}
	t.append(Event{Start: at, Dur: instantDur, Op: op, Frame: int32(frame), Arg: arg})
}

func (t *Track) append(e Event) {
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// events returns the surviving ring contents in append order, plus the
// dropped (overwritten) count. Callers must hold the owner's quiescence
// (see TakeNew / Snapshot).
func (t *Track) events(from uint64) ([]Event, uint64) {
	lost := uint64(0)
	if t.n > uint64(len(t.buf)) {
		oldest := t.n - uint64(len(t.buf))
		if oldest > from {
			lost = oldest - from
			from = oldest
		}
	}
	out := make([]Event, 0, t.n-from)
	for i := from; i < t.n; i++ {
		out = append(out, t.buf[i%uint64(len(t.buf))])
	}
	return out, lost
}

// TrackEvents is one track's slice of a drain or snapshot.
type TrackEvents struct {
	Track   string
	Events  []Event
	Dropped uint64
}

// TakeNew drains every track's events appended since the previous
// TakeNew, in track-creation order. The caller must be quiesced with
// respect to all track owners (the farm worker drains between frames,
// after the tile pool barrier). Nil recorder returns nil.
func (r *Recorder) TakeNew() []TrackEvents {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	tracks := make([]*Track, len(r.tracks))
	copy(tracks, r.tracks)
	r.mu.Unlock()
	var out []TrackEvents
	for _, t := range tracks {
		evs, lost := t.events(t.taken)
		t.taken = t.n
		if len(evs) == 0 && lost == 0 {
			continue
		}
		out = append(out, TrackEvents{Track: t.name, Events: evs, Dropped: lost})
	}
	return out
}

// Snapshot copies the recorder's full surviving contents into a
// Timeline (nil recorder yields an empty, non-nil Timeline). Like
// TakeNew it requires track-owner quiescence.
func (r *Recorder) Snapshot() *Timeline {
	tl := &Timeline{Meta: map[string]string{}}
	if r == nil {
		return tl
	}
	r.mu.Lock()
	tracks := make([]*Track, len(r.tracks))
	copy(tracks, r.tracks)
	r.mu.Unlock()
	for _, t := range tracks {
		evs, lost := t.events(0)
		tl.AddTrack(t.name, evs, lost)
	}
	return tl
}

// Timeline is a merged, exportable set of tracks — one process's
// snapshot, or the cluster-wide merge the master builds from its own
// recorder plus every worker's shipped, offset-corrected events.
type Timeline struct {
	// Meta carries run-level metadata (scheme, scene, resolution); the
	// Chrome exporter writes it as otherData and the analyzer reports
	// the partition scheme from it.
	Meta   map[string]string
	Tracks []TrackData
}

// TrackData is one track's events, sorted by start time.
type TrackData struct {
	// Name is the track path; Group() is its first element.
	Name    string
	Events  []Event
	Dropped uint64
}

// Group returns the track's group — the name up to the first '/'
// (a worker name or "master").
func (td *TrackData) Group() string { return GroupOf(td.Name) }

// GroupOf returns the group of a track name: the prefix up to the
// first '/', or the whole name when there is no separator.
func GroupOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// AddTrack appends a track, merging into an existing one of the same
// name (shipped worker tracks arrive in per-frame slices).
func (tl *Timeline) AddTrack(name string, events []Event, dropped uint64) {
	for i := range tl.Tracks {
		if tl.Tracks[i].Name == name {
			tl.Tracks[i].Events = append(tl.Tracks[i].Events, events...)
			tl.Tracks[i].Dropped += dropped
			return
		}
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	tl.Tracks = append(tl.Tracks, TrackData{Name: name, Events: evs, Dropped: dropped})
}

// Shift adds off nanoseconds to every event of the named track group —
// the clock-offset correction mapping a worker's clock onto the
// master's.
func (tl *Timeline) Shift(group string, off int64) {
	for i := range tl.Tracks {
		if tl.Tracks[i].Group() != group {
			continue
		}
		for j := range tl.Tracks[i].Events {
			tl.Tracks[i].Events[j].Start += off
		}
	}
}

// Sort orders tracks by name and each track's events by start time
// (stable, so equal timestamps keep append order).
func (tl *Timeline) Sort() {
	sort.SliceStable(tl.Tracks, func(i, j int) bool { return tl.Tracks[i].Name < tl.Tracks[j].Name })
	for i := range tl.Tracks {
		evs := tl.Tracks[i].Events
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].Start < evs[b].Start })
	}
}

// Events counts all events across tracks.
func (tl *Timeline) Events() int {
	n := 0
	for i := range tl.Tracks {
		n += len(tl.Tracks[i].Events)
	}
	return n
}

// Bounds returns the earliest start and latest end across all events
// (0, 0 when empty).
func (tl *Timeline) Bounds() (start, end int64) {
	first := true
	for i := range tl.Tracks {
		for _, e := range tl.Tracks[i].Events {
			if first || e.Start < start {
				start = e.Start
			}
			if first || e.End() > end {
				end = e.End()
			}
			first = false
		}
	}
	return start, end
}
