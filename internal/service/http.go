package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"nowrender/internal/fleetd"
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
// trace-event JSON (loadable in Perfetto, readable by `now trace`).
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

// scrape is one consistent read of everything /metrics prints.
type scrape struct {
	totals
	queueDepth, running uint64
	uptime              time.Duration
	cache               stats.CacheStats
	fleet               fleetd.PoolStats
	tenantDepths        map[string]int
	rejected            map[string]uint64
	states              map[State]int
	workers             map[string]time.Duration
	timings             []jobTiming
}

// jobTiming is one started job's row of the per-job timing families.
type jobTiming struct {
	id           string
	queueS, runS float64
	state        State
}

// metricTable is every /metrics sample whose labels are fixed, in the
// order printed: the service's own counters, and the frame cache's, the
// farm fault handling's and the wire's tables lifted from stats.
var metricTable = slices.Concat(
	[]stats.Counter[scrape]{
		{Family: "nowrender_queue_depth", Help: "Jobs queued and not yet running.", Gauge: true, Field: func(m *scrape) *uint64 { return &m.queueDepth }},
		{Family: "nowrender_jobs_running", Help: "Jobs currently running.", Gauge: true, Field: func(m *scrape) *uint64 { return &m.running }},
	},
	stats.Lift(stats.CacheTable, func(m *scrape) *stats.CacheStats { return &m.cache }),
	[]stats.Counter[scrape]{
		{Family: "nowrender_coalesced_frames_total", Help: "Frame requests that joined another job's in-flight render instead of rendering.", Field: func(m *scrape) *uint64 { return &m.coalescedFrames }},
		{Family: "nowrender_coalesced_jobs_total", Help: "Jobs that received at least one frame from another job's in-flight render.", Field: func(m *scrape) *uint64 { return &m.coalescedJobs }},
		{Family: "nowrender_fleet_capacity", Help: "Worker slots farm runs lease from (-1 = unlimited).", Gauge: true, Value: func(m *scrape) float64 { return float64(m.fleet.Capacity) }},
		{Family: "nowrender_fleet_leased", Help: "Worker slots currently leased to farm runs.", Gauge: true, Value: func(m *scrape) float64 { return float64(m.fleet.Leased) }},
		{Family: "nowrender_fleet_leases_total", Help: "Leases granted since start.", Field: func(m *scrape) *uint64 { return &m.fleet.Leases }},
		{Family: "nowrender_fleet_lease_waits_total", Help: "Lease requests that had to wait for capacity.", Field: func(m *scrape) *uint64 { return &m.fleet.Waits }},
		{Family: "nowrender_fleet_lease_wait_seconds_total", Help: "Time farm runs spent waiting for a worker lease.", Value: func(m *scrape) float64 { return m.leaseWait.Seconds() }},
		{Family: "nowrender_fleet_lease_renews_total", Help: "Broker lease renewals (0 in single-replica mode).", Field: func(m *scrape) *uint64 { return &m.fleet.Renews }},
		{Family: "nowrender_fleet_lease_expiries_total", Help: "Broker leases expired unrenewed (0 in single-replica mode).", Field: func(m *scrape) *uint64 { return &m.fleet.Expired }},
		{Family: "nowrender_frames_rendered_total", Help: "Frames rendered by the farm.", Field: func(m *scrape) *uint64 { return &m.framesRendered }},
		{Family: "nowrender_frames_cached_total", Help: "Frames served from the cache.", Field: func(m *scrape) *uint64 { return &m.framesCached }},
		{Family: "nowrender_rays_traced_total", Help: "Rays traced across all jobs.", Field: func(m *scrape) *uint64 { return &m.rays }},
	},
	stats.Lift(stats.FaultTable, func(m *scrape) *stats.FaultCounters { return &m.faults }),
	stats.Lift(stats.WireTable, func(m *scrape) *stats.WireStats { return &m.wire }),
	[]stats.Counter[scrape]{
		{Family: "nowrender_job_retries_total", Help: "Failed render attempts that were retried.", Field: func(m *scrape) *uint64 { return &m.jobRetries }},
		{Family: "nowrender_uptime_seconds", Help: "Service uptime.", Value: func(m *scrape) float64 { return m.uptime.Seconds() }},
	},
)

// scrape reads the counters under the lock, copying what later jobs go
// on changing in place.
func (s *Service) scrape() scrape {
	m := scrape{cache: s.cache.Stats(), fleet: s.leaser.Stats(), states: map[State]int{}}
	s.mu.Lock()
	defer s.mu.Unlock()
	m.totals = s.totals
	m.wire, m.objspace = stats.WireStats{}, stats.ObjSpaceStats{}
	m.wire.Merge(s.wire)
	m.objspace.Merge(s.objspace)
	m.queueDepth, m.running = uint64(s.queue.n), uint64(s.running)
	m.uptime = time.Since(s.started)
	m.tenantDepths = s.queue.depths()
	m.rejected = maps.Clone(s.rejected)
	m.workers = maps.Clone(s.workerBusy)
	for _, id := range s.order {
		j := s.jobs[id]
		m.states[j.state]++
		if !j.started.IsZero() {
			end := j.finished
			if end.IsZero() {
				end = time.Now()
			}
			m.timings = append(m.timings, jobTiming{id: j.id, state: j.state,
				queueS: j.started.Sub(j.submitted).Seconds(), runS: end.Sub(j.started).Seconds()})
		}
	}
	return m
}

// handleMetrics exposes the service counters in Prometheus text format:
// one loop over metricTable, with the families whose labels come from
// data — tenants, rejection reasons, job states, shards, workers and
// jobs — written after the row they follow.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var p stats.Prom
	for i := range metricTable {
		row := &metricTable[i]
		stats.WriteRow(&p, row, &m)
		switch row.Family {
		case "nowrender_queue_depth":
			for _, t := range stats.SortedKeys(m.tenantDepths) {
				p.Sample(fmt.Sprintf("tenant=%q", t), uint64(m.tenantDepths[t]))
			}
			p.Family("nowrender_jobs_rejected_total", "Submissions refused by admission control, by reason.", false)
			for _, reason := range []string{RejectQueueFull, RejectTenantQuota, RejectUnknownTenant, RejectDraining} {
				p.Sample(fmt.Sprintf("reason=%q", reason), m.rejected[reason])
			}
		case "nowrender_jobs_running":
			p.Family("nowrender_jobs_total", "Jobs by lifecycle state.", true)
			for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
				p.Sample(fmt.Sprintf("state=%q", st), uint64(m.states[st]))
			}
		case "nowrender_wire_frame_acks_total":
			if m.objspace.Enabled() {
				for _, sr := range stats.ShardTable {
					p.Family(sr.Family, sr.Help, sr.Gauge)
					for n := range m.objspace.PerShard {
						p.Sample(fmt.Sprintf("shard=\"%d\"", n), *sr.Field(&m.objspace.PerShard[n]))
					}
				}
			}
			if len(m.wire.BaseMissByWorker) > 0 {
				p.Family("nowrender_wire_base_misses_total", "Deltas dropped for a missing base frame, by shipping worker.", false)
				for _, n := range stats.SortedKeys(m.wire.BaseMissByWorker) {
					p.Sample(fmt.Sprintf("worker=%q", n), m.wire.BaseMissByWorker[n])
				}
			}
		case "nowrender_job_retries_total":
			p.Family("nowrender_worker_busy_seconds_total", "Per-worker busy time (utilisation numerator).", false)
			for _, n := range stats.SortedKeys(m.workers) {
				p.SampleFloat(fmt.Sprintf("worker=%q", n), m.workers[n].Seconds())
			}
			p.Family("nowrender_job_queue_seconds", "Time each job spent queued.", true)
			for _, t := range m.timings {
				p.SampleFloat(fmt.Sprintf("job=%q", t.id), t.queueS)
			}
			p.Family("nowrender_job_run_seconds", "Time each job spent running (so far, if unfinished).", true)
			for _, t := range m.timings {
				p.SampleFloat(fmt.Sprintf("job=%q,state=%q", t.id, t.state), t.runS)
			}
			if id := s.cfg.ReplicaID; id != "" {
				p.Family("nowrender_replica_info", "Identity of this control-plane replica (always 1).", true)
				p.Sample(fmt.Sprintf("replica=%q", id), 1)
			}
		}
	}
	_, _ = w.Write(p.Text) // a failed write is the scraper hanging up
}
