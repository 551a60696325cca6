package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"nowrender/internal/stats"
	"nowrender/internal/tga"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs                  submit a job (JSON JobSpec) -> Status
//	GET    /jobs                  list all jobs
//	GET    /jobs/{id}             poll one job's status
//	POST   /jobs/{id}/cancel      cancel a queued or running job
//	GET    /jobs/{id}/events      server-sent per-frame progress events
//	GET    /jobs/{id}/frames/{n}  fetch a finished frame (?format=tga|ppm|png)
//	GET    /jobs/{id}/timeline    Chrome trace JSON of the job's farm runs
//	GET    /metrics               Prometheus text-format metrics
//	GET    /healthz               liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/frames/{frame}", s.handleFrame)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The replica header lets a client (or load balancer) tell which
		// multi-master replica answered; absent in single-replica mode.
		if id := s.cfg.ReplicaID; id != "" {
			w.Header().Set("X-Nowrender-Replica", id)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON sends v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError sends a JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.JobStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams job progress as server-sent events. Each event is
//
//	event: <type>
//	data: <Event JSON>
//
// Frames completed before the subscription are replayed first, so the
// client always sees one "frame" event per frame; a terminal event
// (done/failed/cancelled) ends the stream.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	id := r.PathValue("id")
	ch, st, err := s.subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer s.unsubscribe(id, ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeSSE := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	// Always open with a status snapshot so late subscribers know where
	// the job stands.
	writeSSE("status", st)
	if st.State.Terminal() {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal event already delivered
			}
			writeSSE(ev.Type, ev)
			if ev.Type != "frame" && ev.Type != "queued" && ev.Type != "started" && ev.Type != "retrying" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleFrame serves one finished frame, as soon as it is available
// (streaming: clients need not wait for the whole job). Formats: tga
// (default, the paper's output; sent with Content-Length), ppm, png.
func (s *Service) handleFrame(w http.ResponseWriter, r *http.Request) {
	frame, err := strconv.Atoi(r.PathValue("frame"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad frame number %q", r.PathValue("frame")))
		return
	}
	img, key, err := s.frame(r.PathValue("id"), frame)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, ErrFrameNotReady) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "tga":
		// The cache keeps a fetched frame's file beside its pixels, so a
		// repeat fetch is one sized write of bytes already built.
		data, err := s.cache.TGA(key, img)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "image/x-tga")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data) // a failed write is the client hanging up
	case "ppm":
		w.Header().Set("Content-Type", "image/x-portable-pixmap")
		_ = tga.EncodePPM(w, img)
	case "png":
		w.Header().Set("Content-Type", "image/png")
		_ = tga.EncodePNG(w, img)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", r.URL.Query().Get("format")))
	}
}

// handleTimeline serves the job's merged cluster timeline as Chrome
// trace-event JSON (loadable in Perfetto, readable by cmd/nowtrace).
// 404 when the service runs without -timeline or no farm run has
// completed yet.
func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request) {
	tl, err := s.JobTimeline(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if tl == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no timeline recorded (enable with -timeline, and wait for a farm run to complete)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tl.WriteChromeTrace(w)
}

// handleMetrics exposes the service counters in Prometheus text format:
// queue depth, running jobs, job states, cache hit/miss/eviction and
// occupancy, frames rendered vs served from cache, total rays, per-job
// timings, and per-worker busy time (utilisation numerator).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()

	s.mu.Lock()
	type jobTiming struct {
		id           string
		queueS, runS float64
		state        State
	}
	states := map[State]int{}
	var timings []jobTiming
	for _, id := range s.order {
		j := s.jobs[id]
		states[j.state]++
		t := jobTiming{id: j.id, state: j.state}
		if !j.started.IsZero() {
			t.queueS = j.started.Sub(j.submitted).Seconds()
			end := j.finished
			if end.IsZero() {
				end = time.Now()
			}
			t.runS = end.Sub(j.started).Seconds()
			timings = append(timings, t)
		}
	}
	queueDepth := s.queue.n
	tenantDepths := s.queue.depths()
	running := s.running
	leaseWait := s.leaseWait
	framesRendered := s.framesRendered
	framesCached := s.framesCached
	coalescedFrames := s.coalescedFrames
	coalescedJobs := s.coalescedJobs
	rejected := make(map[string]uint64, len(s.rejected))
	for r, n := range s.rejected {
		rejected[r] = n
	}
	totalRays := s.rays.Total()
	faults := s.faults
	wire := s.wire
	objspace := s.objspace
	objspace.PerShard = append([]stats.ObjSpaceShard(nil), s.objspace.PerShard...)
	jobRetries := s.jobRetries
	workers := make(map[string]time.Duration, len(s.workerBusy))
	for k, v := range s.workerBusy {
		workers[k] = v
	}
	uptime := time.Since(s.started).Seconds()
	s.mu.Unlock()
	fs := s.FleetStats()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	p("# HELP nowrender_queue_depth Jobs queued and not yet running.")
	p("# TYPE nowrender_queue_depth gauge")
	p("nowrender_queue_depth %d", queueDepth)
	tenants := make([]string, 0, len(tenantDepths))
	for t := range tenantDepths {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		p("nowrender_queue_depth{tenant=%q} %d", t, tenantDepths[t])
	}
	p("# HELP nowrender_jobs_rejected_total Submissions refused by admission control, by reason.")
	p("# TYPE nowrender_jobs_rejected_total counter")
	for _, reason := range []string{RejectQueueFull, RejectTenantQuota, RejectUnknownTenant, RejectDraining} {
		p("nowrender_jobs_rejected_total{reason=%q} %d", reason, rejected[reason])
	}
	p("# HELP nowrender_jobs_running Jobs currently running.")
	p("# TYPE nowrender_jobs_running gauge")
	p("nowrender_jobs_running %d", running)
	p("# HELP nowrender_jobs_total Jobs by lifecycle state.")
	p("# TYPE nowrender_jobs_total gauge")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		p("nowrender_jobs_total{state=%q} %d", string(st), states[st])
	}

	p("# HELP nowrender_cache_hits_total Frame cache hits.")
	p("# TYPE nowrender_cache_hits_total counter")
	p("nowrender_cache_hits_total %d", cs.Hits)
	p("# HELP nowrender_cache_misses_total Frame cache misses.")
	p("# TYPE nowrender_cache_misses_total counter")
	p("nowrender_cache_misses_total %d", cs.Misses)
	p("# HELP nowrender_cache_evictions_total Frames evicted to fit the byte budget.")
	p("# TYPE nowrender_cache_evictions_total counter")
	p("nowrender_cache_evictions_total %d", cs.Evictions)
	p("# HELP nowrender_cache_expired_total Frames dropped past their TTL.")
	p("# TYPE nowrender_cache_expired_total counter")
	p("nowrender_cache_expired_total %d", cs.Expired)
	p("# HELP nowrender_cache_hit_rate Hits over lookups since start.")
	p("# TYPE nowrender_cache_hit_rate gauge")
	p("nowrender_cache_hit_rate %g", cs.HitRate())
	p("# HELP nowrender_cache_bytes Bytes currently cached: frame pixels plus the encoded TGA files kept beside them.")
	p("# TYPE nowrender_cache_bytes gauge")
	p("nowrender_cache_bytes %d", cs.Bytes)
	p("# HELP nowrender_cache_encoded_bytes Share of nowrender_cache_bytes that is encoded TGA files.")
	p("# TYPE nowrender_cache_encoded_bytes gauge")
	p("nowrender_cache_encoded_bytes %d", cs.EncodedBytes)
	p("# HELP nowrender_cache_entries Frames currently cached.")
	p("# TYPE nowrender_cache_entries gauge")
	p("nowrender_cache_entries %d", cs.Entries)
	p("# HELP nowrender_cache_inflight Frame renders currently in flight (coalescing targets).")
	p("# TYPE nowrender_cache_inflight gauge")
	p("nowrender_cache_inflight %d", cs.InFlight)

	p("# HELP nowrender_coalesced_frames_total Frame requests that joined another job's in-flight render instead of rendering.")
	p("# TYPE nowrender_coalesced_frames_total counter")
	p("nowrender_coalesced_frames_total %d", coalescedFrames)
	p("# HELP nowrender_coalesced_jobs_total Jobs that received at least one frame from another job's in-flight render.")
	p("# TYPE nowrender_coalesced_jobs_total counter")
	p("nowrender_coalesced_jobs_total %d", coalescedJobs)

	p("# HELP nowrender_fleet_capacity Worker slots farm runs lease from (-1 = unlimited).")
	p("# TYPE nowrender_fleet_capacity gauge")
	p("nowrender_fleet_capacity %d", fs.Capacity)
	p("# HELP nowrender_fleet_leased Worker slots currently leased to farm runs.")
	p("# TYPE nowrender_fleet_leased gauge")
	p("nowrender_fleet_leased %d", fs.Leased)
	p("# HELP nowrender_fleet_leases_total Leases granted since start.")
	p("# TYPE nowrender_fleet_leases_total counter")
	p("nowrender_fleet_leases_total %d", fs.Leases)
	p("# HELP nowrender_fleet_lease_waits_total Lease requests that had to wait for capacity.")
	p("# TYPE nowrender_fleet_lease_waits_total counter")
	p("nowrender_fleet_lease_waits_total %d", fs.Waits)
	p("# HELP nowrender_fleet_lease_wait_seconds_total Time farm runs spent waiting for a worker lease.")
	p("# TYPE nowrender_fleet_lease_wait_seconds_total counter")
	p("nowrender_fleet_lease_wait_seconds_total %g", leaseWait.Seconds())
	p("# HELP nowrender_fleet_lease_renews_total Broker lease renewals (0 in single-replica mode).")
	p("# TYPE nowrender_fleet_lease_renews_total counter")
	p("nowrender_fleet_lease_renews_total %d", fs.Renews)
	p("# HELP nowrender_fleet_lease_expiries_total Broker leases expired unrenewed (0 in single-replica mode).")
	p("# TYPE nowrender_fleet_lease_expiries_total counter")
	p("nowrender_fleet_lease_expiries_total %d", fs.Expired)

	p("# HELP nowrender_frames_rendered_total Frames rendered by the farm.")
	p("# TYPE nowrender_frames_rendered_total counter")
	p("nowrender_frames_rendered_total %d", framesRendered)
	p("# HELP nowrender_frames_cached_total Frames served from the cache.")
	p("# TYPE nowrender_frames_cached_total counter")
	p("nowrender_frames_cached_total %d", framesCached)
	p("# HELP nowrender_rays_traced_total Rays traced across all jobs.")
	p("# TYPE nowrender_rays_traced_total counter")
	p("nowrender_rays_traced_total %d", totalRays)

	p("# HELP nowrender_fault_events_total Farm fault-handling events by kind (workers retired, deadline expiries, malformed messages absorbed, frames requeued or quarantined, duplicates dropped, speculative re-issues).")
	p("# TYPE nowrender_fault_events_total counter")
	p("nowrender_fault_events_total{kind=\"workers_lost\"} %d", faults.WorkersLost)
	p("nowrender_fault_events_total{kind=\"heartbeat_timeouts\"} %d", faults.HeartbeatTimeouts)
	p("nowrender_fault_events_total{kind=\"stall_timeouts\"} %d", faults.StallTimeouts)
	p("nowrender_fault_events_total{kind=\"malformed_messages\"} %d", faults.MalformedMessages)
	p("nowrender_fault_events_total{kind=\"duplicates_dropped\"} %d", faults.DuplicatesDropped)
	p("nowrender_fault_events_total{kind=\"frames_requeued\"} %d", faults.FramesRequeued)
	p("nowrender_fault_events_total{kind=\"frames_quarantined\"} %d", faults.FramesQuarantined)
	p("nowrender_fault_events_total{kind=\"speculative_tasks\"} %d", faults.SpeculativeTasks)
	p("# HELP nowrender_heartbeat_pings_total Heartbeat pings sent to workers.")
	p("# TYPE nowrender_heartbeat_pings_total counter")
	p("nowrender_heartbeat_pings_total %d", faults.PingsSent)
	p("# HELP nowrender_heartbeat_pongs_total Heartbeat pongs received from workers.")
	p("# TYPE nowrender_heartbeat_pongs_total counter")
	p("nowrender_heartbeat_pongs_total %d", faults.PongsReceived)
	p("# HELP nowrender_wire_frames_total Frame results received over the farm data path by kind (full key-frames, dirty-span deltas, span-codec payloads, deltas dropped for a missing base).")
	p("# TYPE nowrender_wire_frames_total counter")
	p("nowrender_wire_frames_total{kind=\"full\"} %d", wire.FramesFull)
	p("nowrender_wire_frames_total{kind=\"delta\"} %d", wire.FramesDelta)
	p("nowrender_wire_frames_total{kind=\"span\"} %d", wire.FramesSpan)
	p("nowrender_wire_frames_total{kind=\"delta_base_miss\"} %d", wire.DeltaBaseMisses)
	p("# HELP nowrender_wire_bytes_total Frame payload bytes by accounting (wire = bytes actually shipped, raw = uncompressed full-region pixels they represent).")
	p("# TYPE nowrender_wire_bytes_total counter")
	p("nowrender_wire_bytes_total{kind=\"wire\"} %d", wire.WireBytes)
	p("nowrender_wire_bytes_total{kind=\"raw\"} %d", wire.RawBytes)
	p("# HELP nowrender_wire_codec_bytes_total Frame payload bytes shipped on the wire by payload encoding (raw where the span codec was off or failed to shrink the payload).")
	p("# TYPE nowrender_wire_codec_bytes_total counter")
	p("nowrender_wire_codec_bytes_total{codec=\"raw\"} %d", wire.WireBytesByEnc[0])
	p("nowrender_wire_codec_bytes_total{codec=\"span\"} %d", wire.WireBytesByEnc[1])
	p("# HELP nowrender_wire_ingress_bytes_total Result-path bytes by landing point: the master's own ingress versus distributed-framebuffer compositor sinks.")
	p("# TYPE nowrender_wire_ingress_bytes_total counter")
	p("nowrender_wire_ingress_bytes_total{at=\"master\"} %d", wire.MasterIngressBytes)
	p("nowrender_wire_ingress_bytes_total{at=\"sink\"} %d", wire.SinkIngressBytes)
	p("# HELP nowrender_wire_frame_acks_total DFB control acks received by the master in place of pixel payloads.")
	p("# TYPE nowrender_wire_frame_acks_total counter")
	p("nowrender_wire_frame_acks_total %d", wire.FramesAcked)
	if objspace.Enabled() {
		p("# HELP nowrender_rays_forwarded_total Object-space rays forwarded between shard owners, by sending shard.")
		p("# TYPE nowrender_rays_forwarded_total counter")
		for i, sh := range objspace.PerShard {
			p("nowrender_rays_forwarded_total{shard=\"%d\"} %d", i, sh.RaysForwarded)
		}
		p("# HELP nowrender_forward_bytes_total Bytes the forwarded ray states serialized to, by sending shard.")
		p("# TYPE nowrender_forward_bytes_total counter")
		for i, sh := range objspace.PerShard {
			p("nowrender_forward_bytes_total{shard=\"%d\"} %d", i, sh.ForwardBytes)
		}
		p("# HELP nowrender_objspace_peak_resident_bytes Largest per-shard resident scene size any sharded task built, by shard.")
		p("# TYPE nowrender_objspace_peak_resident_bytes gauge")
		for i, sh := range objspace.PerShard {
			p("nowrender_objspace_peak_resident_bytes{shard=\"%d\"} %d", i, sh.ResidentBytes)
		}
	}
	if len(wire.BaseMissByWorker) > 0 {
		p("# HELP nowrender_wire_base_misses_total Deltas dropped for a missing base frame, by shipping worker.")
		p("# TYPE nowrender_wire_base_misses_total counter")
		missers := make([]string, 0, len(wire.BaseMissByWorker))
		for n := range wire.BaseMissByWorker {
			missers = append(missers, n)
		}
		sort.Strings(missers)
		for _, n := range missers {
			p("nowrender_wire_base_misses_total{worker=%q} %d", n, wire.BaseMissByWorker[n])
		}
	}
	p("# HELP nowrender_job_retries_total Failed render attempts that were retried.")
	p("# TYPE nowrender_job_retries_total counter")
	p("nowrender_job_retries_total %d", jobRetries)

	p("# HELP nowrender_worker_busy_seconds_total Per-worker busy time (utilisation numerator).")
	p("# TYPE nowrender_worker_busy_seconds_total counter")
	names := make([]string, 0, len(workers))
	for n := range workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p("nowrender_worker_busy_seconds_total{worker=%q} %g", n, workers[n].Seconds())
	}

	p("# HELP nowrender_job_queue_seconds Time each job spent queued.")
	p("# TYPE nowrender_job_queue_seconds gauge")
	for _, t := range timings {
		p("nowrender_job_queue_seconds{job=%q} %g", t.id, t.queueS)
	}
	p("# HELP nowrender_job_run_seconds Time each job spent running (so far, if unfinished).")
	p("# TYPE nowrender_job_run_seconds gauge")
	for _, t := range timings {
		p("nowrender_job_run_seconds{job=%q,state=%q} %g", t.id, string(t.state), t.runS)
	}

	if id := s.cfg.ReplicaID; id != "" {
		p("# HELP nowrender_replica_info Identity of this control-plane replica (always 1).")
		p("# TYPE nowrender_replica_info gauge")
		p("nowrender_replica_info{replica=%q} 1", id)
	}
	p("# HELP nowrender_uptime_seconds Service uptime.")
	p("# TYPE nowrender_uptime_seconds counter")
	p("nowrender_uptime_seconds %g", uptime)
}
