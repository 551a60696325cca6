package service

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nowrender/internal/timeline"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// collectEvents drains a subscription until its terminal close,
// returning every event seen.
func collectEvents(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	var evs []Event
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("event stream did not terminate (saw %d events)", len(evs))
		}
	}
}

// TestCoalescingAcrossTenants: two tenants submit the identical job
// while the fleet pool is held by a blocker, so the second job finds
// every frame in flight and follows the first job's render — one farm
// run feeds two complete event streams with byte-identical frames. A
// third tenant arriving afterwards is served entirely from the cache.
func TestCoalescingAcrossTenants(t *testing.T) {
	s := New(Config{MaxConcurrent: 3, FleetCapacity: 3, Timeline: true})
	defer s.Close()

	// The blocker leases the whole pool, pinning the lead job between
	// its flight registration (phase 1) and its farm run (phase 2).
	blocker, err := s.Submit(JobSpec{Scene: "bouncing:8", W: 160, H: 120, Tenant: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker to lease the pool", func() bool {
		return s.leaser.Stats().Leased == 3
	})

	const scene = "newton:4"
	spec := JobSpec{Scene: scene, W: 48, H: 48}

	specA := spec
	specA.Tenant = "alice"
	stA, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	evA, _, err := s.subscribe(stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's job registers all four flights, then blocks on the lease:
	// the wait below implies the flights.
	waitFor(t, "lead job to wait on the pool", func() bool {
		return s.leaser.Stats().Waits >= 1
	})

	specB := spec
	specB.Tenant = "bob"
	stB, err := s.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	evB, _, err := s.subscribe(stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Bob's job joins all four in-flight frames before any render runs;
	// its sched track records an OpCoalesce instant per follow.
	waitFor(t, "follower to coalesce", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return timeline.Analyze(s.jobs[stB.ID].rec.Snapshot()).Coalesced >= 4
	})

	for _, id := range []string{blocker.ID, stA.ID, stB.ID} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}

	a, _ := s.JobStatus(stA.ID)
	b, _ := s.JobStatus(stB.ID)
	if a.RaysTraced == 0 {
		t.Error("lead job traced no rays")
	}
	if b.RaysTraced != 0 {
		t.Errorf("follower traced %d rays, want 0 (one farm run for both)", b.RaysTraced)
	}
	if b.CoalescedFrames != 4 {
		t.Errorf("follower coalesced %d frames, want 4", b.CoalescedFrames)
	}
	if b.FramesDone != 4 || a.FramesDone != 4 {
		t.Fatalf("frames done = %d/%d, want 4/4", a.FramesDone, b.FramesDone)
	}
	// The lead job waited for the blocker's lease; the blocker found the
	// pool empty and waited for nothing.
	if bl, _ := s.JobStatus(blocker.ID); a.LeaseWaitMS <= 0 || bl.LeaseWaitMS != 0 {
		t.Errorf("lease_wait_ms: lead %d, blocker %d; want > 0 and 0", a.LeaseWaitMS, bl.LeaseWaitMS)
	}

	// Both event streams are complete: every frame announced, then done.
	for name, evs := range map[string][]Event{"lead": collectEvents(t, evA), "follower": collectEvents(t, evB)} {
		frames := 0
		for _, ev := range evs {
			if ev.Type == "frame" {
				frames++
				if name == "follower" && !ev.Coalesced {
					t.Errorf("follower frame %d event not marked coalesced", ev.Frame)
				}
			}
		}
		if frames != 4 {
			t.Errorf("%s stream carried %d frame events, want 4", name, frames)
		}
		if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
			t.Errorf("%s stream did not end with done: %+v", name, evs)
		}
	}

	// Byte-identical output on both jobs, equal to a clean render.
	clean := New(Config{})
	defer clean.Close()
	ref, err := clean.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ref = waitDone(t, clean, ref.ID); ref.State != StateDone {
		t.Fatalf("reference: %s (%s)", ref.State, ref.Error)
	}
	for f := 0; f < 4; f++ {
		want, _, _ := clean.frame(ref.ID, f)
		for _, id := range []string{stA.ID, stB.ID} {
			got, _, err := s.frame(id, f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("job %s frame %d differs from clean render", id, f)
			}
		}
	}

	// A third tenant arriving after completion is a pure cache hit.
	specC := spec
	specC.Tenant = "carol"
	stC, err := s.Submit(specC)
	if err != nil {
		t.Fatal(err)
	}
	if stC = waitDone(t, s, stC.ID); stC.State != StateDone {
		t.Fatalf("third tenant: %s (%s)", stC.State, stC.Error)
	}
	if stC.CacheHits != 4 || stC.RaysTraced != 0 {
		t.Errorf("third tenant hits=%d rays=%d, want 4 hits / 0 rays", stC.CacheHits, stC.RaysTraced)
	}

	// The coalescing surfaces in the follower's timeline and /metrics.
	tl, err := s.JobTimeline(stB.ID)
	if err != nil || tl == nil {
		t.Fatalf("follower timeline: %v", err)
	}
	if rep := timeline.Analyze(tl); rep.Coalesced != 4 {
		t.Errorf("timeline reports %d coalesced frames, want 4", rep.Coalesced)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nowrender_coalesced_frames_total 4",
		"nowrender_coalesced_jobs_total 1",
		"nowrender_fleet_capacity 3",
		"nowrender_fleet_lease_waits_total",
		"nowrender_fleet_lease_wait_seconds_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdmissionControl: the tenant allow list, per-tenant quotas and
// the global cap each reject with their own counted reason, visible in
// /metrics alongside per-tenant queue depths.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{
		MaxConcurrent:      1,
		QueueCap:           2,
		MaxQueuedPerTenant: 1,
		Tenants:            map[string]float64{"alice": 1, "bob": 1},
	})
	defer s.Close()

	blocker, err := s.Submit(JobSpec{Scene: "newton:6", W: 120, H: 160, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker to run", func() bool {
		st, _ := s.JobStatus(blocker.ID)
		return st.State == StateRunning
	})

	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32, Tenant: "alice"}); err != nil {
		t.Fatalf("first queued alice job rejected: %v", err)
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 40, H: 40, Tenant: "alice"}); err == nil {
		t.Error("second queued alice job accepted past MaxQueuedPerTenant")
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32, Tenant: "mallory"}); err == nil {
		t.Error("unknown tenant accepted despite allow list")
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32, Tenant: "bob"}); err != nil {
		t.Fatalf("bob's job rejected with queue headroom: %v", err)
	}
	// Queue now holds 2 (the global cap): bob's next is stopped by the
	// cap, not his quota.
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 40, H: 40, Tenant: "bob"}); err == nil {
		t.Error("submission accepted past QueueCap")
	}

	if got := s.scrape().queueDepth; got != 2 {
		t.Errorf("queue depth = %d, want 2", got)
	}
	depths := s.scrape().tenantDepths
	if depths["alice"] != 1 || depths["bob"] != 1 {
		t.Errorf("tenant depths = %v, want alice:1 bob:1", depths)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"nowrender_queue_depth 2",
		`nowrender_queue_depth{tenant="alice"} 1`,
		`nowrender_queue_depth{tenant="bob"} 1`,
		`nowrender_jobs_rejected_total{reason="queue_full"} 1`,
		`nowrender_jobs_rejected_total{reason="tenant_quota"} 1`,
		`nowrender_jobs_rejected_total{reason="unknown_tenant"} 1`,
		`nowrender_jobs_rejected_total{reason="draining"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWeightedFairPreventsStarvation: with one run slot, a lone job
// from a second tenant submitted behind a flood from the first, all at
// one priority, is admitted ahead of the whole flood under fair
// scheduling — its tenant's virtual time lags the heavy tenant's — and
// behind all of it in priority order. Admission order is the picker's
// alone, so both are exact.
func TestWeightedFairPreventsStarvation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fair       bool
		lightFirst bool
	}{
		{"fair", true, true},
		{"priority", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{MaxConcurrent: 1, Fair: tc.fair})
			defer s.Close()

			blocker, err := s.Submit(JobSpec{Scene: "newton:6", W: 120, H: 160, Tenant: "heavy"})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "blocker to run", func() bool {
				st, _ := s.JobStatus(blocker.ID)
				return st.State == StateRunning
			})

			// Flood from the heavy tenant, then one job from the light one.
			// Distinct resolutions keep the cache out of the picture.
			var flood []string
			for i := 0; i < 3; i++ {
				st, err := s.Submit(JobSpec{Scene: "newton:2", W: 40 + 8*i, H: 30 + 6*i, Tenant: "heavy"})
				if err != nil {
					t.Fatal(err)
				}
				flood = append(flood, st.ID)
			}
			light, err := s.Submit(JobSpec{Scene: "newton:2", W: 64, H: 48, Tenant: "light"})
			if err != nil {
				t.Fatal(err)
			}

			for _, id := range append(append([]string{blocker.ID}, flood...), light.ID) {
				if st := waitDone(t, s, id); st.State != StateDone {
					t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
				}
			}

			lightSt, _ := s.JobStatus(light.ID)
			for _, id := range flood {
				st, _ := s.JobStatus(id)
				if lightSt.Started.Before(st.Started) != tc.lightFirst {
					t.Errorf("light tenant started %v, heavy job %s at %v; light ahead of the flood: want %v",
						lightSt.Started, id, st.Started, tc.lightFirst)
				}
			}
		})
	}
}

// TestSchedTimelineAttributesQueueWait: a job queued behind another
// carries enqueue/admit/queue-wait/lease events on its sched track, and
// the analyzer splits its latency into queue wait versus render time.
func TestSchedTimelineAttributesQueueWait(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Timeline: true})
	defer s.Close()

	first, err := s.Submit(JobSpec{Scene: "newton:4", W: 80, H: 60})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(JobSpec{Scene: "newton:2", W: 48, H: 36})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{first.ID, second.ID} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}

	tl, err := s.JobTimeline(second.ID)
	if err != nil || tl == nil {
		t.Fatalf("timeline: %v", err)
	}
	ops := map[timeline.Op]int{}
	sawSchedTrack := false
	for _, td := range tl.Tracks {
		if strings.HasPrefix(td.Name, "sched/") {
			sawSchedTrack = true
		}
		for _, e := range td.Events {
			ops[e.Op]++
		}
	}
	if !sawSchedTrack {
		t.Fatal("no sched/ track in the job timeline")
	}
	for _, op := range []timeline.Op{timeline.OpEnqueue, timeline.OpAdmit, timeline.OpQueueWait, timeline.OpLease} {
		if ops[op] == 0 {
			t.Errorf("timeline missing %s event", op)
		}
	}
	rep := timeline.Analyze(tl)
	if rep.QueueWait <= 0 {
		t.Errorf("queue wait = %d ns, want > 0 (job sat behind another)", rep.QueueWait)
	}
	if rep.RenderBusy <= 0 {
		t.Errorf("render busy = %d ns, want > 0", rep.RenderBusy)
	}
}

// TestDrainFinishesInFlightJobs: SIGTERM semantics — Drain stops
// admission (rejections are counted), lets the running job finish, and
// flushes its event stream before returning.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	st, err := s.Submit(JobSpec{Scene: "newton:6", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := s.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to run", func() bool {
		got, _ := s.JobStatus(st.ID)
		return got.State == StateRunning
	})

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "drain to start", func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.draining })

	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32}); err == nil {
		t.Error("submission accepted while draining")
	}
	if got := s.scrape().rejected[RejectDraining]; got != 1 {
		t.Errorf("draining rejections = %d, want 1", got)
	}

	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete")
	}

	got, _ := s.JobStatus(st.ID)
	if got.State != StateDone || got.FramesDone != 6 {
		t.Fatalf("after drain: state=%s frames=%d, want done/6", got.State, got.FramesDone)
	}
	// The stream already carries its terminal event: drain waited.
	evs := collectEvents(t, events)
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("drained job's stream = %+v, want done terminal", evs)
	}
}

// TestDrainDeadlineCancels: a drain whose context expires cancels the
// leftover jobs instead of hanging.
func TestDrainDeadlineCancels(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()
	st, err := s.Submit(JobSpec{Scene: "newton:30", W: 240, H: 320})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to run", func() bool {
		got, _ := s.JobStatus(st.ID)
		return got.State == StateRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain error = %v, want deadline exceeded", err)
	}
	got, _ := s.JobStatus(st.ID)
	if got.State != StateCancelled {
		t.Fatalf("job state after expired drain = %s, want cancelled", got.State)
	}
}
