package service

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/framecache"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/sdl"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Queued -> Running -> one of the three terminal states.
// A queued job can go straight to Cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec describes a render request, the JSON body of POST /jobs.
type JobSpec struct {
	// Scene is either a builtin spec ("newton", "bouncing:30", ...) or
	// raw SDL source (detected by the presence of '{' or a newline).
	Scene string `json:"scene"`
	// W, H is the output resolution. Defaults to the paper's 240x320.
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
	// StartFrame and EndFrame select a sub-range [StartFrame, EndFrame);
	// both zero means the whole animation.
	StartFrame int `json:"start_frame,omitempty"`
	EndFrame   int `json:"end_frame,omitempty"`
	// Scheme names the partitioning, as partition.Parse reads it:
	// seqdiv (default), seqdiv-static, framediv, hybrid or pixeldiv.
	// framediv and hybrid tile 80x80 blocks, the paper's size.
	Scheme string `json:"scheme,omitempty"`
	// Plain disables the frame-coherence algorithm inside tasks.
	Plain bool `json:"plain,omitempty"`
	// Samples is the supersampling factor (0/1 = one ray per pixel).
	// Part of the cache address: it changes pixels.
	Samples int `json:"samples,omitempty"`
	// Threads bounds each farm worker's intra-frame tile pool; 0 falls
	// back to the service default, which in turn defaults to all cores.
	// Deliberately NOT part of the cache address: the render core
	// guarantees byte-identical pixels for every thread count, so frames
	// cached at one setting serve requests at any other.
	Threads int `json:"threads,omitempty"`
	// Priority orders the queue: higher first, FIFO within a priority.
	Priority int `json:"priority,omitempty"`
	// Driver selects the farm backend: "virtual" (deterministic virtual
	// NOW, the default) or "local" (goroutine workers, wall clock).
	Driver string `json:"driver,omitempty"`
	// Retries is how many times a failed render attempt is retried
	// (capped at 5). Attempts resume from
	// whatever frames already reached the job or the cache, so progress
	// is monotonic across retries.
	Retries int `json:"retries,omitempty"`
	// RetryBackoffMS is the delay before the first retry, doubled each
	// further attempt. 0 retries immediately.
	RetryBackoffMS int `json:"retry_backoff_ms,omitempty"`
	// Tenant names who this job belongs to, for per-tenant quotas and
	// fair scheduling; empty canonicalises to "default". Deliberately
	// NOT part of the cache address: identical requests from different
	// tenants share cached frames and coalesce onto one render.
	Tenant string `json:"tenant,omitempty"`
	// ObjSpaceShards partitions each task's scene into that many spatial
	// shards with ray forwarding between owners (0 = replicated scenes,
	// the default; otherwise 2..objspace.MaxShards). Deliberately NOT
	// part of the cache address: sharded rendering is byte-identical to
	// replicated at every shard count, so cached frames serve either.
	ObjSpaceShards int `json:"objspace_shards,omitempty"`
}

// Status is the externally visible snapshot of a job, the JSON body of
// GET /jobs/{id}.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// FramesTotal is the number of frames the job covers; FramesDone
	// counts frames available so far (rendered or from cache).
	FramesTotal int `json:"frames_total"`
	FramesDone  int `json:"frames_done"`
	// CacheHits counts frames served from the content-addressed cache.
	CacheHits int `json:"cache_hits"`
	// CoalescedFrames counts frames this job received from another
	// job's in-flight render instead of rendering (or re-rendering)
	// them itself.
	CoalescedFrames int `json:"coalesced_frames,omitempty"`
	// RaysTraced counts rays actually traced for this job; a fully
	// cache-served job reports zero.
	RaysTraced uint64 `json:"rays_traced"`
	// Attempts counts render attempts so far (1 on the happy path;
	// 1 + retries used otherwise).
	Attempts int `json:"attempts,omitempty"`
	// The job's fault-handling, frame data-path and object-space
	// footprints: its farm runs' counters, merged (zero for a fully
	// cache-served job). The stats fields' tags are their JSON keys.
	stats.FaultCounters
	stats.WireStats
	stats.ObjSpaceStats
	Error string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// QueueDurationMS and RunDurationMS are the measured phase timings
	// (exported in /metrics as nowrender_job_*_seconds). LeaseWaitMS is
	// the part of the run spent waiting for worker slots, whether from
	// the private pool or the fleet broker.
	QueueDurationMS int64 `json:"queue_ms"`
	RunDurationMS   int64 `json:"run_ms"`
	LeaseWaitMS     int64 `json:"lease_wait_ms"`
}

// Event is one server-sent progress event on GET /jobs/{id}/events.
type Event struct {
	// Type is the lifecycle edge: queued, started, frame, done, failed,
	// cancelled. Terminal types end the stream.
	Type string `json:"type"`
	Job  string `json:"job"`
	// Frame is set on "frame" events (-1 otherwise, so frame 0 is
	// unambiguous on the wire); Cached tells whether it came from the
	// frame cache instead of being rendered.
	Frame  int  `json:"frame"`
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a frame delivered by another job's in-flight
	// render (neither rendered by this job nor a cache hit).
	Coalesced bool `json:"coalesced,omitempty"`
	// Progress counters at the time of the event.
	FramesDone  int    `json:"frames_done"`
	FramesTotal int    `json:"frames_total"`
	Error       string `json:"error,omitempty"`
}

// job is the service-internal state. All fields after the immutable
// header are guarded by the owning Service's mutex.
type job struct {
	id     string
	seq    int // submission order, the FIFO tiebreak
	spec   JobSpec
	scene  *scene.Scene
	source string // canonical scene text (cache address component)
	key    framecache.SeqKey

	state     State
	err       error
	frames    []*fb.Framebuffer // index = frame - spec.StartFrame
	done      int
	cacheHits int
	coalesced int
	attempts  int
	rays      stats.RayCounters
	faults    stats.FaultCounters
	wire      stats.WireStats
	objspace  stats.ObjSpaceStats
	// led marks the absolute frames this job currently leads the
	// in-flight cache flight for: it must either Put (via OnFrame) or
	// Abort (at its terminal state) every one of them.
	led map[int]bool
	// qi is the job's slot in its tenant's queue heap while queued.
	qi int
	// leaseWait is the time the job's farm runs spent acquiring workers.
	leaseWait time.Duration
	// timeline accumulates the merged cluster timeline of the job's farm
	// runs (Config.Timeline on); nil otherwise.
	timeline *timeline.Timeline
	// rec/schedTrack record the service-level scheduling events
	// (enqueue, admit, lease, coalesce, drain) when Config.Timeline is
	// on; the track merges into timeline at the terminal state. All
	// appends happen under the service mutex — the recorder's
	// single-writer-per-track rule holds.
	rec        *timeline.Recorder
	schedTrack *timeline.Track
	enqueuedAt int64

	submitted, started, finished time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// finishedCh closes when the job reaches a terminal state.
	finishedCh chan struct{}

	subs []chan Event
}

// status snapshots the job; callers hold the service mutex.
func (j *job) status() Status {
	st := Status{
		ID: j.id, State: j.state, Spec: j.spec,
		FramesTotal: len(j.frames), FramesDone: j.done,
		CacheHits: j.cacheHits, CoalescedFrames: j.coalesced,
		RaysTraced:    j.rays.Total(),
		Attempts:      j.attempts,
		FaultCounters: j.faults,
		LeaseWaitMS:   j.leaseWait.Milliseconds(),
		Submitted:     j.submitted, Started: j.started, Finished: j.finished,
	}
	// Merging into zero values copies the map and the slice that the
	// job's later runs go on adding to under the lock.
	st.WireStats.Merge(j.wire)
	st.ObjSpaceStats.Merge(j.objspace)
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.QueueDurationMS = j.started.Sub(j.submitted).Milliseconds()
		if !j.finished.IsZero() {
			st.RunDurationMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return st
}

// resolveScene turns the spec's Scene field into a scene plus the
// canonical source string the cache addresses by.
func resolveScene(src string) (*scene.Scene, string, error) {
	if src == "" {
		return nil, "", fmt.Errorf("service: empty scene")
	}
	if strings.ContainsAny(src, "{\n") {
		sc, err := sdl.Parse("job", src)
		if err != nil {
			return nil, "", err
		}
		return sc, src, nil
	}
	// Builtin spec ("newton:30"). The spec string itself is canonical —
	// builtins are deterministic per spec.
	sc, err := scenes.FromSpec(src)
	if err != nil {
		return nil, "", err
	}
	return sc, src, nil
}
