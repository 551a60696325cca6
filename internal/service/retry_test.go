package service

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
)

// --- job retry over farm failures ----------------------------------------

// TestJobRetryResumesPartialProgress: every local worker's connection
// severs on its second frame delivery, so the first attempt collapses
// with only part of the animation rendered. The retry must re-render
// only the missing frames (the delivered ones stay on the job and in the
// cache) and complete — with pixels identical to a fault-free service.
func TestJobRetryResumesPartialProgress(t *testing.T) {
	plan := &faulty.Plan{
		Seed:  1,
		Rules: []faulty.Rule{{Tag: farm.TagFrameDone, Dir: faulty.SendOnly, After: 2, Action: faulty.Sever}},
	}
	s := New(Config{Faults: plan})
	defer s.Close()

	st, err := s.Submit(JobSpec{
		Scene: "newton:6", W: 40, H: 32, Driver: "local",
		Scheme: "seqdiv-static", Retries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (first attempt should have failed)", st.Attempts)
	}
	if st.FramesDone != 6 {
		t.Fatalf("frames done = %d, want 6", st.FramesDone)
	}
	if st.WorkersLost == 0 {
		t.Error("status reports no workers lost despite severed connections")
	}

	// The recovered animation is byte-identical to a fault-free render.
	clean := New(Config{})
	defer clean.Close()
	ref, err := clean.Submit(JobSpec{Scene: "newton:6", W: 40, H: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ref = waitDone(t, clean, ref.ID); ref.State != StateDone {
		t.Fatalf("reference job: %s (%s)", ref.State, ref.Error)
	}
	for f := 0; f < 6; f++ {
		got, _, err1 := s.frame(st.ID, f)
		want, _, err2 := clean.frame(ref.ID, f)
		if err1 != nil || err2 != nil {
			t.Fatalf("frame %d: %v / %v", f, err1, err2)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("frame %d differs from fault-free render", f)
		}
	}

	// The retry and fault counters surface in /metrics.
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
		"nowrender_job_retries_total",
		`nowrender_fault_events_total{kind="workers_lost"}`,
		`nowrender_fault_events_total{kind="frames_requeued"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "nowrender_job_retries_total 1") &&
		!strings.Contains(metrics, "nowrender_job_retries_total 2") &&
		!strings.Contains(metrics, "nowrender_job_retries_total 3") {
		t.Errorf("job retry counter not incremented:\n%s", metrics)
	}
}

// TestJobRetryHitsCacheWarmedByPeer: a job whose every local attempt is
// doomed retries while a healthy virtual-driver job renders the same
// animation; the retry is then served entirely from the shared
// content-addressed cache and succeeds without its farm ever working.
// The plan reaches both drivers, so it protects the virtual machines.
func TestJobRetryHitsCacheWarmedByPeer(t *testing.T) {
	plan := &faulty.Plan{
		Seed:  1,
		Rules: []faulty.Rule{{Tag: farm.TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Sever}},
	}
	for _, m := range cluster.PaperTestbed() {
		plan.Protect = append(plan.Protect, m.Name)
	}
	s := New(Config{Faults: plan})
	defer s.Close()

	doomed, err := s.Submit(JobSpec{
		Scene: "newton:3", W: 32, H: 24, Driver: "local",
		Scheme: "seqdiv-static", Retries: 2, RetryBackoffMS: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail before warming the cache, or the
	// doomed job could be served from it on attempt one and never retry.
	events, _, err := s.subscribe(doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
waitRetry:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("doomed job terminated before its first retry")
			}
			if ev.Type == "retrying" {
				break waitRetry
			}
		case <-deadline:
			t.Fatal("no retrying event within 30s")
		}
	}
	s.unsubscribe(doomed.ID, events)
	// Same scene and resolution, healthy driver: fills the cache while the
	// doomed job sits out its backoff.
	peer, err := s.Submit(JobSpec{Scene: "newton:3", W: 32, H: 24, Driver: "virtual"})
	if err != nil {
		t.Fatal(err)
	}
	if p := waitDone(t, s, peer.ID); p.State != StateDone {
		t.Fatalf("peer job: %s (%s)", p.State, p.Error)
	}

	st := waitDone(t, s, doomed.ID)
	if st.State != StateDone {
		t.Fatalf("retried job state = %s (err %q), want done", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
	if st.CacheHits != 3 {
		t.Errorf("cache hits = %d, want 3 (every frame from the peer's render)", st.CacheHits)
	}
	if st.RaysTraced != 0 {
		t.Errorf("retried job traced %d rays, want 0", st.RaysTraced)
	}
	for f := 0; f < 3; f++ {
		got, _, err1 := s.frame(st.ID, f)
		want, _, err2 := s.frame(peer.ID, f)
		if err1 != nil || err2 != nil {
			t.Fatalf("frame %d: %v / %v", f, err1, err2)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("frame %d differs between cached retry and peer render", f)
		}
	}
}

// TestJobRetryBudgetExhausted: with no retries left the failure is
// terminal and surfaced, not retried forever.
func TestJobRetryBudgetExhausted(t *testing.T) {
	plan := &faulty.Plan{
		Seed:  1,
		Rules: []faulty.Rule{{Tag: farm.TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Sever}},
	}
	s := New(Config{Faults: plan})
	defer s.Close()
	st, err := s.Submit(JobSpec{
		Scene: "newton:2", W: 32, H: 24, Driver: "local",
		Scheme: "seqdiv-static", Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one retry)", st.Attempts)
	}
	if st.Error == "" {
		t.Error("failed job carries no error")
	}
}
