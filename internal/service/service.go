// Package service is the long-lived render service: job lifecycle
// (states, events, SSE fan-out), the HTTP API (http.go) and, under one
// mutex, what decides when a job runs and on how many workers
// (sched.go):
//
//   - admission control: a global queue cap, per-tenant quotas and a
//     tenant allow list, each refusal counted by reason;
//   - per-tenant priority queues, dispatched up to MaxConcurrent at a
//     time in global priority order or, with Config.Fair, by weighted
//     fair queuing across tenants;
//   - worker capacity leased per farm run, from a private pool or, in
//     a multi-master deployment, from the internal/fleetd broker.
//
// Frames go through internal/framecache, the content-addressed frame
// cache with in-flight request coalescing: two tenants rendering the
// same scene+frame concurrently cost exactly one render.
//
// This is the subsystem the paper's §5 "production use" direction asks
// for: the farm renders one animation as fast as the NOW allows; the
// service accepts, schedules, caches and streams many such animations
// concurrently, for many tenants, without re-rendering anything twice.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/fleetd"
	"nowrender/internal/framecache"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// Config tunes a Service.
type Config struct {
	// MaxConcurrent bounds simultaneously running jobs. Default 2.
	MaxConcurrent int
	// QueueCap bounds queued-but-not-running jobs; Submit fails once the
	// queue is full. Default 256.
	QueueCap int
	// MaxQueuedPerTenant bounds one tenant's queued jobs (admission
	// control): a tenant at its quota is rejected without touching
	// other tenants' headroom. 0 = unlimited.
	MaxQueuedPerTenant int
	// Tenants, when non-nil, is the tenant allow list with per-tenant
	// fair-scheduling weights (weight <= 0 reads as 1): jobs from
	// tenants outside it are rejected. Nil admits any tenant at weight
	// 1.
	Tenants map[string]float64
	// Fair dispatches across tenants by weighted fair queuing. Off, jobs
	// run in one global order: priority, then submission order.
	Fair bool
	// FleetCapacity bounds the worker slots farm runs may lease
	// concurrently from the private pool; 0 = unlimited (every run gets
	// the workers it asks for).
	FleetCapacity int
	// Leaser, when non-nil, replaces the private pool as the source of
	// worker-capacity leases — this is how a replica in the multi-master
	// control plane draws from the shared broker (internal/fleetd)
	// instead of owning its workers. Nil: a private pool bounded by
	// FleetCapacity.
	Leaser fleetd.Leaser
	// ReplicaID names this service instance in a multi-replica
	// deployment; surfaced in /metrics and the healthz payload so
	// clients and scrapes can tell replicas apart. Empty = single
	// replica.
	ReplicaID string
	// CacheBytes is the frame cache's byte budget: cached pixels plus
	// the encoded TGA kept beside each frame once it has been fetched.
	// 0 selects the default 64 MiB; negative disables caching.
	CacheBytes int64
	// Machines populate the virtual NOW for "virtual"-driver jobs.
	// Defaults to the paper's 3-machine testbed.
	Machines []cluster.Machine
	// Workers is the goroutine count for "local"-driver jobs. Defaults
	// to the machine count.
	Workers int
	// Threads is the default intra-frame tile-pool width for jobs whose
	// spec leaves Threads at 0. 0 lets workers use all their cores.
	Threads int
	// DefaultDriver is used when a JobSpec leaves Driver empty:
	// "virtual" (default) or "local".
	DefaultDriver string

	// Liveness and Speculate are passed through to farm.Config on either
	// driver — the service-level fault-tolerance knobs (see farm.Config
	// for their semantics).
	Liveness  time.Duration
	Speculate bool
	// Faults, when non-nil, injects this plan's faults into every farm
	// run's worker traffic, on either driver (see farm.Config.Faults).
	// Exposed by `now serve -chaos` for soak-testing a live
	// service.
	Faults *faulty.Plan
	// WireDelta and WireSpanCodec enable dirty-span delta frames and
	// span-codec payload compression on the farm data path (see
	// farm.Config). Pixels are byte-identical in every mode.
	WireDelta, WireSpanCodec bool
	// Timeline records every farm run into a per-job cluster timeline
	// (master scheduling events plus offset-corrected worker spans, plus
	// a "sched" track of service-level enqueue/admit/lease/coalesce/
	// drain events), served as Chrome trace JSON on GET
	// /jobs/{id}/timeline. Off by default: each running job then costs
	// nothing but a nil check per instrumentation site.
	Timeline bool
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	} else if c.CacheBytes < 0 {
		// framecache reads budget <= 0 as unlimited; the documented
		// contract here is the opposite. A 1-byte budget admits no frame
		// while flight coalescing keeps working.
		c.CacheBytes = 1
	}
	if len(c.Machines) == 0 {
		c.Machines = cluster.PaperTestbed()
	}
	if c.Workers <= 0 {
		c.Workers = len(c.Machines)
	}
	if c.DefaultDriver == "" {
		c.DefaultDriver = "virtual"
	}
}

// Rejection reasons counted for nowrender_jobs_rejected_total.
const (
	RejectQueueFull     = "queue_full"
	RejectTenantQuota   = "tenant_quota"
	RejectUnknownTenant = "unknown_tenant"
	RejectDraining      = "draining"
)

// blockSize is the block edge of a framediv or hybrid job: the paper's
// 80x80.
const blockSize = 80

// maxJobRetries caps JobSpec.Retries.
const maxJobRetries = 5

// Service is a long-lived render-job service: the job queue, dispatch,
// worker leases and the frame cache behind the HTTP API. Create with
// New, serve its Handler, and Close on shutdown (or Drain for a
// graceful one).
type Service struct {
	cfg    Config
	cache  *framecache.Cache
	leaser fleetd.Leaser // the private pool, or the broker client in multi-master

	mu       sync.Mutex
	queue    jobQueue
	fair     *fairShare // nil: global priority order
	running  int
	jobs     map[string]*job
	order    []string // submission order, for listings
	nextSeq  int
	closed   bool
	draining bool
	wg       sync.WaitGroup

	// Aggregate counters for /metrics.
	totals
	rejected   map[string]uint64
	workerBusy map[string]time.Duration
	started    time.Time
}

// totals is the service's aggregate counters: what every job and farm
// run adds up to, the rows of /metrics' table (metricTable).
type totals struct {
	framesRendered, framesCached   uint64
	coalescedFrames, coalescedJobs uint64
	jobRetries, rays               uint64
	leaseWait                      time.Duration
	faults                         stats.FaultCounters
	wire                           stats.WireStats
	objspace                       stats.ObjSpaceStats
}

// New returns a ready service. No background goroutines run until jobs
// are submitted.
func New(cfg Config) *Service {
	cfg.defaults()
	if cfg.Tenants != nil {
		tenants := make(map[string]float64, len(cfg.Tenants))
		for t, w := range cfg.Tenants {
			tenants[tenantName(t)] = w
		}
		cfg.Tenants = tenants
	}
	s := &Service{
		cfg:        cfg,
		cache:      framecache.New(cfg.CacheBytes),
		leaser:     cfg.Leaser,
		jobs:       make(map[string]*job),
		rejected:   make(map[string]uint64),
		workerBusy: make(map[string]time.Duration),
		started:    time.Now(),
	}
	if s.leaser == nil {
		s.leaser = newPool(&s.mu, cfg.FleetCapacity)
	}
	if cfg.Fair {
		s.fair = &fairShare{weights: cfg.Tenants, vtime: make(map[string]float64)}
	}
	return s
}

// tenantName canonicalises a tenant: jobs submitted without one belong
// to "default".
func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// normalize validates and defaults a spec against the scene it resolved
// to.
func (s *Service) normalize(spec *JobSpec, frames int) error {
	spec.Tenant = tenantName(spec.Tenant)
	if spec.W == 0 && spec.H == 0 {
		spec.W, spec.H = 240, 320
	}
	if spec.W <= 0 || spec.H <= 0 {
		return fmt.Errorf("service: bad resolution %dx%d", spec.W, spec.H)
	}
	if spec.StartFrame == 0 && spec.EndFrame == 0 {
		spec.EndFrame = frames
	}
	if spec.StartFrame < 0 || spec.EndFrame > frames || spec.StartFrame >= spec.EndFrame {
		return fmt.Errorf("service: bad frame range [%d,%d) for %d frames",
			spec.StartFrame, spec.EndFrame, frames)
	}
	if spec.Samples < 1 {
		spec.Samples = 1
	}
	if spec.Threads < 0 {
		return fmt.Errorf("service: bad thread count %d", spec.Threads)
	}
	if spec.Threads == 0 {
		spec.Threads = s.cfg.Threads
	}
	if spec.Scheme == "" {
		spec.Scheme = "seqdiv"
	}
	if _, err := partition.Parse(spec.Scheme, blockSize, blockSize); err != nil {
		return err
	}
	if spec.Driver == "" {
		spec.Driver = s.cfg.DefaultDriver
	}
	if spec.Driver != "virtual" && spec.Driver != "local" {
		return fmt.Errorf("service: unknown driver %q", spec.Driver)
	}
	if spec.ObjSpaceShards != 0 && (spec.ObjSpaceShards < 2 || spec.ObjSpaceShards > objspace.MaxShards) {
		return fmt.Errorf("service: object-space shard count %d outside [2,%d]",
			spec.ObjSpaceShards, objspace.MaxShards)
	}
	if spec.Retries < 0 || spec.RetryBackoffMS < 0 {
		return fmt.Errorf("service: bad retry policy (retries %d, backoff %dms)",
			spec.Retries, spec.RetryBackoffMS)
	}
	spec.Retries = min(spec.Retries, maxJobRetries)
	return nil
}

// rejectLocked counts a rejected submission by reason; callers hold
// s.mu.
func (s *Service) rejectLocked(reason string) {
	s.rejected[reason]++
}

// admitLocked queues j, or returns why admission control refused it:
// the reason /metrics counts and the error Submit reports. Callers hold
// s.mu.
func (s *Service) admitLocked(j *job) (string, error) {
	t := j.spec.Tenant
	_, known := s.cfg.Tenants[t]
	depth := len(s.queue.heaps[t])
	switch {
	case s.cfg.Tenants != nil && !known:
		return RejectUnknownTenant, fmt.Errorf("unknown tenant %q", t)
	case s.queue.n >= s.cfg.QueueCap:
		return RejectQueueFull, fmt.Errorf("queue full (%d jobs)", s.queue.n)
	case s.cfg.MaxQueuedPerTenant > 0 && depth >= s.cfg.MaxQueuedPerTenant:
		return RejectTenantQuota, fmt.Errorf("tenant queue quota exceeded (tenant %q, %d jobs)", t, depth)
	}
	s.queue.push(j)
	return "", nil
}

// Submit validates spec, parses its scene, and enqueues the job
// subject to admission control (queue capacity, per-tenant quota,
// tenant allow list). It returns the queued job's status; rendering
// proceeds asynchronously.
func (s *Service) Submit(spec JobSpec) (Status, error) {
	sc, source, err := resolveScene(spec.Scene)
	if err != nil {
		return Status{}, err
	}
	if err := s.normalize(&spec, sc.Frames); err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}, fmt.Errorf("service: closed")
	}
	if s.draining {
		s.rejectLocked(RejectDraining)
		return Status{}, fmt.Errorf("service: draining, not accepting jobs")
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:         fmt.Sprintf("job-%04d", s.nextSeq+1),
		seq:        s.nextSeq,
		spec:       spec,
		scene:      sc,
		source:     source,
		key:        framecache.NewSeqKey(source, spec.W, spec.H, spec.Samples),
		state:      StateQueued,
		frames:     make([]*fb.Framebuffer, spec.EndFrame-spec.StartFrame),
		led:        make(map[int]bool),
		submitted:  time.Now(),
		ctx:        ctx,
		cancel:     cancel,
		finishedCh: make(chan struct{}),
	}
	if reason, err := s.admitLocked(j); err != nil {
		cancel()
		s.rejectLocked(reason)
		return Status{}, fmt.Errorf("service: %w", err)
	}
	s.nextSeq++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if s.cfg.Timeline {
		j.rec = timeline.New(0)
		j.schedTrack = j.rec.Track("sched/" + j.id)
		j.enqueuedAt = j.rec.Now()
		j.schedTrack.InstantAt(timeline.OpEnqueue, -1, j.enqueuedAt, int64(j.seq))
	}
	s.publishLocked(j, Event{Type: "queued"})
	s.startQueuedLocked()
	return j.status(), nil
}

// startQueuedLocked dispatches queued jobs while fewer than
// MaxConcurrent run; the picker decides which tenant's job each slot
// gets. Draining does not stop dispatch: admitted work finishes.
// Callers hold s.mu.
func (s *Service) startQueuedLocked() {
	for s.running < s.cfg.MaxConcurrent {
		var j *job
		if s.fair != nil {
			j = s.fair.pick(&s.queue)
		} else {
			j = s.queue.pickPriority()
		}
		if j == nil {
			return
		}
		s.running++
		j.state = StateRunning
		j.started = time.Now()
		if j.schedTrack != nil {
			now := j.rec.Now()
			j.schedTrack.InstantAt(timeline.OpAdmit, -1, now, int64(j.seq))
			j.schedTrack.Span(timeline.OpQueueWait, -1, j.enqueuedAt, now, int64(j.seq))
		}
		s.publishLocked(j, Event{Type: "started"})
		s.wg.Add(1)
		go s.run(j)
	}
}

// run executes one job to a terminal state: cache lookups and flight
// coalescing first, then farm runs over the frames this job leads,
// retried up to the spec's budget. Each attempt resumes, not restarts:
// frames that reached the job (via OnFrame, the cache, or a coalesced
// flight) before a failure are kept, so a retried job only re-renders
// what is actually missing.
func (s *Service) run(j *job) {
	defer s.wg.Done()
	var err error
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		j.attempts = attempt + 1
		s.mu.Unlock()
		err = s.render(j)
		if err != nil {
			// Release the flights this attempt still leads before anything
			// else — followers (other jobs wanting the same frames) fall
			// back to rendering them instead of waiting out this job's
			// backoff. A retry re-acquires: by then a peer may have cached
			// the frames, be mid-flight (this job follows), or neither
			// (this job leads again).
			s.abortLed(j)
		}
		if err == nil || j.ctx.Err() != nil || attempt >= j.spec.Retries {
			break
		}
		s.mu.Lock()
		s.jobRetries++
		s.publishLocked(j, Event{Type: "retrying", Error: err.Error()})
		s.mu.Unlock()
		if backoff := time.Duration(j.spec.RetryBackoffMS) * time.Millisecond; backoff > 0 {
			select {
			case <-time.After(backoff << attempt):
			case <-j.ctx.Done():
			}
		}
	}

	s.mu.Lock()
	j.finished = time.Now()
	ev := Event{Type: "done"}
	switch {
	case err == nil:
		j.state = StateDone
	case j.ctx.Err() != nil:
		j.state = StateCancelled
		j.err = context.Cause(j.ctx)
		ev = Event{Type: "cancelled", Error: j.err.Error()}
	default:
		j.state = StateFailed
		j.err = err
		ev = Event{Type: "failed", Error: err.Error()}
	}
	if j.coalesced > 0 {
		s.coalescedJobs++
	}
	if j.rec != nil {
		s.mergeTimelineLocked(j, j.rec.Snapshot())
	}
	s.publishLocked(j, ev)
	close(j.finishedCh)
	j.cancel()
	s.running--
	s.startQueuedLocked()
	s.mu.Unlock()
}

// abortLed releases every in-flight cache entry the job still leads,
// waking followers with an empty close so they render (or re-join) the
// frames themselves. Frames the job delivered are not affected — their
// flights completed at Put time.
func (s *Service) abortLed(j *job) {
	s.mu.Lock()
	ledKeys := make([]int, 0, len(j.led))
	for f := range j.led {
		ledKeys = append(ledKeys, f)
	}
	j.led = make(map[int]bool)
	s.mu.Unlock()
	for _, f := range ledKeys {
		s.cache.Abort(framecache.Key{Seq: j.key, Frame: f})
	}
}

// frameWait is one coalesced frame this job is waiting on another
// job's flight for.
type frameWait struct {
	frame int
	ch    <-chan *fb.Framebuffer
}

// render fills j.frames from the cache, from other jobs' in-flight
// renders, and from the farm — repeating until every frame is present
// or the job fails. Most jobs make a single pass; the loop re-enters
// only when a flight this job followed was aborted (its leader failed
// or was cancelled), in which case the frames are re-acquired and this
// job leads them itself.
func (s *Service) render(j *job) error {
	spec := j.spec
	for {
		if err := j.ctx.Err(); err != nil {
			return err
		}

		// Phase 1: content-addressed cache and flight coalescing. Frame
		// coherence lifted to the service level — repeated, overlapping
		// and *concurrent* requests re-render nothing.
		missing := make([]bool, len(j.frames))
		var waits []frameWait
		anyLead, remaining := false, 0
		for f := spec.StartFrame; f < spec.EndFrame; f++ {
			idx := f - spec.StartFrame
			s.mu.Lock()
			have := j.frames[idx] != nil
			ledAlready := j.led[f]
			s.mu.Unlock()
			if have {
				// Already on the job (a prior attempt or pass got this
				// far); don't re-count or re-announce it.
				continue
			}
			remaining++
			if ledAlready {
				// A previous attempt registered this job as the frame's
				// producer; keep leading it rather than following our own
				// flight.
				missing[idx] = true
				anyLead = true
				continue
			}
			img, wait, _ := s.cache.Acquire(framecache.Key{Seq: j.key, Frame: f})
			switch {
			case img != nil:
				s.mu.Lock()
				j.frames[idx] = img
				j.done++
				j.cacheHits++
				s.framesCached++
				s.publishLocked(j, Event{Type: "frame", Frame: f, Cached: true})
				s.mu.Unlock()
				remaining--
			case wait != nil:
				waits = append(waits, frameWait{frame: f, ch: wait})
				s.mu.Lock()
				j.schedTrack.Instant(timeline.OpCoalesce, f, int64(j.seq))
				s.mu.Unlock()
			default:
				s.mu.Lock()
				j.led[f] = true
				s.mu.Unlock()
				missing[idx] = true
				anyLead = true
			}
		}
		if remaining == 0 {
			return nil
		}

		// Phase 2: group the frames this job leads into contiguous runs,
		// split at camera cuts (the coherence engine is only valid within
		// a camera-stationary sequence), and drive the farm over each run.
		if anyLead {
			runs := missingRuns(missing, spec.StartFrame)
			for _, r := range runs {
				if err := j.ctx.Err(); err != nil {
					return err
				}
				if err := s.renderRange(j, r[0], r[1]); err != nil {
					return err
				}
			}
		}

		// Phase 3: collect the coalesced frames as their leaders finish
		// them. A closed-empty channel means the leader aborted — loop
		// around and acquire the frame again (this job will usually lead
		// it then).
		aborted := false
		for _, fw := range waits {
			select {
			case img, ok := <-fw.ch:
				if !ok || img == nil {
					aborted = true
					continue
				}
				s.mu.Lock()
				if j.frames[fw.frame-spec.StartFrame] == nil {
					j.frames[fw.frame-spec.StartFrame] = img
					j.done++
					j.coalesced++
					s.coalescedFrames++
					s.publishLocked(j, Event{Type: "frame", Frame: fw.frame, Coalesced: true})
				}
				s.mu.Unlock()
			case <-j.ctx.Done():
				return j.ctx.Err()
			}
		}
		if !aborted {
			return nil
		}
	}
}

// missingRuns converts the missing-frame mask (indexed from offset)
// into absolute contiguous [start, end) runs. A run may span a camera
// cut: the farm's master tiles each camera-stationary sequence on its
// own.
func missingRuns(missing []bool, offset int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(missing); {
		if !missing[i] {
			i++
			continue
		}
		start := i
		for i < len(missing) && missing[i] {
			i++
		}
		runs = append(runs, [2]int{offset + start, offset + i})
	}
	return runs
}

// renderRange drives one farm run over absolute frames [start, end):
// it leases worker slots, sizes the run to the lease, and streams each
// completed frame into the cache (completing any coalesced flights) and
// the job.
func (s *Service) renderRange(j *job, start, end int) error {
	scheme, err := partition.Parse(j.spec.Scheme, blockSize, blockSize)
	if err != nil {
		return err
	}
	render, want := farm.RenderVirtual, len(s.cfg.Machines)
	if j.spec.Driver == "local" {
		render, want = farm.RenderLocal, s.cfg.Workers
	}
	asked := time.Now()
	lease, err := s.leaser.Acquire(j.ctx, want)
	waited := time.Since(asked)
	s.mu.Lock()
	j.leaseWait += waited
	s.leaseWait += waited
	if err == nil {
		j.schedTrack.Instant(timeline.OpLease, start, int64(lease.Granted()))
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	defer lease.Return()
	slots := lease.Granted()

	var rec *timeline.Recorder
	if s.cfg.Timeline {
		// One recorder per farm run; runs merge into the job's timeline
		// below (each run has its own epoch, which the trace viewer and
		// analyzer both tolerate — spans never interleave within a track).
		rec = timeline.New(0)
	}
	machines := s.cfg.Machines
	if slots < len(machines) {
		machines = machines[:slots]
	}
	workers := s.cfg.Workers
	if slots < workers {
		workers = slots
	}
	cfg := farm.Config{
		Scene: j.scene, W: j.spec.W, H: j.spec.H,
		Scheme:     scheme,
		StartFrame: start, EndFrame: end,
		Coherence:      !j.spec.Plain,
		Samples:        j.spec.Samples,
		Threads:        j.spec.Threads,
		ObjSpaceShards: j.spec.ObjSpaceShards,
		Machines:       machines,
		Workers:        workers,
		Ctx:            j.ctx,
		Liveness:       s.cfg.Liveness,
		Speculate:      s.cfg.Speculate,
		Faults:         s.cfg.Faults,
		WireDelta:      s.cfg.WireDelta,
		WireSpanCodec:  s.cfg.WireSpanCodec,
		Timeline:       rec,
	}
	cfg.OnFrame = func(f int, img *fb.Framebuffer) error {
		// Put completes any coalesced flight on this frame: followers'
		// wait channels receive the framebuffer the moment it lands.
		s.cache.Put(framecache.Key{Seq: j.key, Frame: f}, img)
		s.mu.Lock()
		delete(j.led, f)
		j.frames[f-j.spec.StartFrame] = img
		j.done++
		s.framesRendered++
		s.publishLocked(j, Event{Type: "frame", Frame: f})
		s.mu.Unlock()
		return nil
	}
	res, err := render(cfg)
	// A failed run still returns its partial result; the faults it
	// absorbed (workers lost, frames requeued) must survive into the
	// job's status and /metrics or failed attempts would be invisible.
	if res != nil {
		s.mu.Lock()
		rays := res.Run.TotalRays()
		j.rays.Merge(rays)
		s.rays += rays.Total()
		j.faults.Merge(res.Faults)
		s.faults.Merge(res.Faults)
		j.wire.Merge(res.Wire)
		s.wire.Merge(res.Wire)
		j.objspace.Merge(res.ObjSpace)
		s.objspace.Merge(res.ObjSpace)
		for _, w := range res.Workers {
			s.workerBusy[w.Worker] += w.Busy
		}
		if res.Timeline != nil {
			s.mergeTimelineLocked(j, res.Timeline)
		}
		s.mu.Unlock()
	}
	return err
}

// mergeTimelineLocked folds a timeline (a farm run's, or the job's own
// sched track) into the job's merged cluster timeline; callers hold
// s.mu.
func (s *Service) mergeTimelineLocked(j *job, tl *timeline.Timeline) {
	if tl == nil {
		return
	}
	if j.timeline == nil {
		j.timeline = &timeline.Timeline{Meta: map[string]string{}}
	}
	for k, v := range tl.Meta {
		j.timeline.Meta[k] = v
	}
	for i := range tl.Tracks {
		td := &tl.Tracks[i]
		j.timeline.AddTrack(td.Name, td.Events, td.Dropped)
	}
	j.timeline.Sort()
}

// JobTimeline returns a job's merged cluster timeline, which grows as
// the job's farm runs complete. Nil when timeline recording is off or
// no run has finished yet. The timeline is shared and must not be
// modified.
func (s *Service) JobTimeline(id string) (*timeline.Timeline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no job %q", id)
	}
	return j.timeline, nil
}

// WireStats snapshots the frame-result wire counters (deltas,
// compression, bytes) aggregated over every farm run the service has
// driven.
func (s *Service) WireStats() (out stats.WireStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Merge(s.wire) // a deep copy
	return out
}

// Cancel stops a job: a queued job is removed from the queue, a running
// job has its context cancelled, which the farm drivers observe
// promptly. Cancelling a finished job is a no-op.
func (s *Service) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("service: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		s.queue.remove(j)
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		if j.rec != nil {
			s.mergeTimelineLocked(j, j.rec.Snapshot())
		}
		s.publishLocked(j, Event{Type: "cancelled", Error: j.err.Error()})
		close(j.finishedCh)
		j.cancel()
		st := j.status()
		s.mu.Unlock()
		return st, nil
	case StateRunning:
		st := j.status()
		s.mu.Unlock()
		j.cancel() // the runner publishes the terminal event
		return st, nil
	default:
		st := j.status()
		s.mu.Unlock()
		return st, nil
	}
}

// JobStatus returns the current status of a job.
func (s *Service) JobStatus(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("service: no job %q", id)
	}
	return j.status(), nil
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// What a failed frame lookup matches under errors.Is: ErrNoFrame when
// the job is unknown or the frame lies outside its range,
// ErrFrameNotReady when the frame exists but is still being rendered.
var (
	ErrNoFrame       = errors.New("service: no such frame")
	ErrFrameNotReady = errors.New("service: frame not rendered yet")
)

// frameError says which job or frame was asked for and unwraps to the
// sentinel that classifies it.
type frameError struct {
	kind error
	msg  string
}

func (e *frameError) Error() string { return e.msg }
func (e *frameError) Unwrap() error { return e.kind }

// frame returns the framebuffer of one absolute frame of a job and its
// cache key. A frame is available as soon as its "frame" progress event
// fires, before the job completes; the framebuffer is shared and must
// not be modified.
func (s *Service) frame(id string, frame int) (*fb.Framebuffer, framecache.Key, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := func(kind error, format string, args ...any) (*fb.Framebuffer, framecache.Key, error) {
		return nil, framecache.Key{}, &frameError{kind: kind, msg: fmt.Sprintf(format, args...)}
	}
	j, ok := s.jobs[id]
	if !ok {
		return fail(ErrNoFrame, "service: no job %q", id)
	}
	if frame < j.spec.StartFrame || frame >= j.spec.EndFrame {
		return fail(ErrNoFrame, "service: frame %d outside job range [%d,%d)",
			frame, j.spec.StartFrame, j.spec.EndFrame)
	}
	img := j.frames[frame-j.spec.StartFrame]
	if img == nil {
		return fail(ErrFrameNotReady, "service: frame %d not rendered yet", frame)
	}
	return img, framecache.Key{Seq: j.key, Frame: frame}, nil
}

// CacheStats snapshots the frame cache counters.
func (s *Service) CacheStats() stats.CacheStats { return s.cache.Stats() }

// subscribe registers a progress listener on a job. The returned channel
// first replays one Event per frame already completed, then carries live
// events; a terminal event ends the stream. The second return is the
// job's status at subscription time (terminal states produce no further
// events).
func (s *Service) subscribe(id string) (<-chan Event, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, Status{}, fmt.Errorf("service: no job %q", id)
	}
	// Big enough for every event a job can emit (queued + started +
	// per-frame + terminal) so a live subscriber never drops.
	ch := make(chan Event, len(j.frames)+8)
	st := j.status()
	if !j.state.Terminal() {
		// Replay completed frames so late subscribers see the full
		// stream. Holding s.mu excludes concurrent publishes, so the
		// replay cannot interleave with live events.
		done := 0
		for i, img := range j.frames {
			if img != nil {
				done++
				ch <- Event{
					Type: "frame", Job: j.id, Frame: j.spec.StartFrame + i,
					FramesDone: done, FramesTotal: len(j.frames),
				}
			}
		}
		j.subs = append(j.subs, ch)
	}
	return ch, st, nil
}

// unsubscribe removes a listener.
func (s *Service) unsubscribe(id string, ch <-chan Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	for i, c := range j.subs {
		if (<-chan Event)(c) == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// publishLocked fans an event out to the job's subscribers; callers hold
// s.mu. Sends never block: the subscription buffer is sized for a full
// job, so a drop only happens to a pathologically stalled consumer.
func (s *Service) publishLocked(j *job, ev Event) {
	ev.Job = j.id
	ev.FramesDone = j.done
	ev.FramesTotal = len(j.frames)
	if ev.Type != "frame" {
		ev.Frame = -1
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Type != "frame" && ev.Type != "queued" && ev.Type != "started" && ev.Type != "retrying" {
		// Terminal event: close the streams.
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// Drain gracefully shuts the service down: admission stops (further
// submissions are rejected and counted), queued and running jobs run to
// completion, and their SSE streams flush their terminal events. If ctx
// expires first, the jobs still unfinished are cancelled and Drain
// returns the context's error. Drain is idempotent; Close after Drain
// is a cheap no-op.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			j := s.jobs[id]
			if !j.state.Terminal() && j.schedTrack != nil {
				j.schedTrack.Instant(timeline.OpDrain, -1, int64(j.seq))
			}
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		s.wg.Wait()
		return ctx.Err()
	}
}

// cancelAll cancels every job in id order.
func (s *Service) cancelAll() {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.mu.Unlock()
	for _, id := range ids {
		_, _ = s.Cancel(id)
	}
}

// Close cancels all queued and running jobs and waits for runners to
// exit. Further submissions fail.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
}
