package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"image"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/tga"
)

// waitDone blocks until the job terminates, with a test-failing timeout.
func waitDone(t testing.TB, s *Service, id string) Status {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("wait %s: no such job", id)
	}
	select {
	case <-j.finishedCh:
	case <-time.After(120 * time.Second):
		t.Fatalf("wait %s: timed out", id)
	}
	st, err := s.JobStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSecondJobServedEntirelyFromCache is the tentpole's end-to-end
// claim: resubmitting the same scene completes via cache hits with zero
// new rays traced.
func TestSecondJobServedEntirelyFromCache(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	spec := JobSpec{Scene: "newton:4", W: 60, H: 80}

	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitDone(t, s, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("job1 state = %s (err %q), want done", st1.State, st1.Error)
	}
	if st1.RaysTraced == 0 {
		t.Fatal("job1 traced no rays")
	}
	if st1.CacheHits != 0 {
		t.Fatalf("job1 cache hits = %d, want 0", st1.CacheHits)
	}
	if st1.FramesDone != 4 {
		t.Fatalf("job1 frames done = %d, want 4", st1.FramesDone)
	}

	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, s, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("job2 state = %s (err %q), want done", st2.State, st2.Error)
	}
	if st2.RaysTraced != 0 {
		t.Fatalf("job2 traced %d rays, want 0 (all frames cached)", st2.RaysTraced)
	}
	if st2.CacheHits != 4 {
		t.Fatalf("job2 cache hits = %d, want 4", st2.CacheHits)
	}

	// The cached frames are byte-identical to the first render.
	for f := 0; f < 4; f++ {
		img1, _, err1 := s.frame(st1.ID, f)
		img2, _, err2 := s.frame(st2.ID, f)
		if err1 != nil || err2 != nil {
			t.Fatalf("frame %d: %v / %v", f, err1, err2)
		}
		if !bytes.Equal(img1.Pix, img2.Pix) {
			t.Fatalf("frame %d differs between jobs", f)
		}
	}

	cs := s.CacheStats()
	if cs.Hits != 4 {
		t.Fatalf("cache hits = %d, want 4", cs.Hits)
	}
	if cs.Entries != 4 {
		t.Fatalf("cache entries = %d, want 4", cs.Entries)
	}
}

// TestOverlappingJobRendersOnlyMissingFrames checks frame-granular
// reuse: a job overlapping a previous one re-renders only the frames
// the cache does not hold.
func TestOverlappingJobRendersOnlyMissingFrames(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	st1, err := s.Submit(JobSpec{Scene: "newton:9", W: 48, H: 64, EndFrame: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st1 = waitDone(t, s, st1.ID); st1.State != StateDone {
		t.Fatalf("job1: %s (%s)", st1.State, st1.Error)
	}

	// [3, 9) overlaps the cached [0, 6) in frames 3..5.
	st2, err := s.Submit(JobSpec{Scene: "newton:9", W: 48, H: 64, StartFrame: 3, EndFrame: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st2 = waitDone(t, s, st2.ID); st2.State != StateDone {
		t.Fatalf("job2: %s (%s)", st2.State, st2.Error)
	}
	if st2.CacheHits != 3 {
		t.Fatalf("job2 cache hits = %d, want 3", st2.CacheHits)
	}
	if st2.FramesDone != 6 {
		t.Fatalf("job2 frames done = %d, want 6", st2.FramesDone)
	}
	if st2.RaysTraced == 0 || st2.RaysTraced >= st1.RaysTraced {
		t.Fatalf("job2 rays = %d, want nonzero and below job1's %d",
			st2.RaysTraced, st1.RaysTraced)
	}
}

// TestCancelStopsRunningJobPromptly cancels mid-run and checks the farm
// driver observes the context quickly instead of rendering to the end.
func TestCancelStopsRunningJobPromptly(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	st, err := s.Submit(JobSpec{Scene: "newton:45", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := s.subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer s.unsubscribe(st.ID, ch)
	// Let at least one frame complete so we cancel a job that is
	// genuinely inside a farm run.
	deadline := time.After(60 * time.Second)
	for progressed := false; !progressed; {
		select {
		case ev := <-ch:
			progressed = ev.Type == "frame"
		case <-deadline:
			t.Fatal("no frame completed before cancel")
		}
	}

	cancelled := time.Now()
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, st.ID)
	stopDelay := time.Since(cancelled)

	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.Error == "" {
		t.Fatal("cancelled job reports no error")
	}
	if final.FramesDone >= 45 {
		t.Fatalf("job rendered all %d frames despite cancellation", final.FramesDone)
	}
	// The virtual driver checks the context once per event, so the stop
	// must come within a frame or two of work, far under the full run.
	if stopDelay > 30*time.Second {
		t.Fatalf("cancellation took %s", stopDelay)
	}
}

// TestCancelQueuedJob removes a queued job without running it.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	blocker, err := s.Submit(JobSpec{Scene: "newton:30", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Scene: "quickstart", W: 40, H: 40})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.scrape().queueDepth; d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if d := s.scrape().queueDepth; d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	if st.RaysTraced != 0 {
		t.Fatalf("queued-then-cancelled job traced %d rays", st.RaysTraced)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, blocker.ID)
}

// TestPriorityOrdersQueue: with one slot busy, a later high-priority
// submission runs before an earlier low-priority one.
func TestPriorityOrdersQueue(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()

	blocker, err := s.Submit(JobSpec{Scene: "newton:10", W: 80, H: 60})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(JobSpec{Scene: "quickstart", W: 40, H: 40, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(JobSpec{Scene: "quickstart", W: 48, H: 48, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, blocker.ID)
	lowSt := waitDone(t, s, low.ID)
	highSt := waitDone(t, s, high.ID)
	if !highSt.Started.Before(lowSt.Started) {
		t.Fatalf("high-priority job started %s, after low-priority %s",
			highSt.Started, lowSt.Started)
	}
}

// TestLocalDriver exercises the goroutine-worker farm backend through
// the service, including its context plumbing.
func TestLocalDriver(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	st, err := s.Submit(JobSpec{Scene: "newton:3", W: 48, H: 64, Driver: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, s, st.ID); st.State != StateDone {
		t.Fatalf("local job: %s (%s)", st.State, st.Error)
	}
	if st.FramesDone != 3 || st.RaysTraced == 0 {
		t.Fatalf("local job frames=%d rays=%d", st.FramesDone, st.RaysTraced)
	}
}

// TestSubmitValidation rejects malformed specs.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	bad := []JobSpec{
		{},                                // empty scene
		{Scene: "no-such-builtin"},        // unknown scene
		{Scene: "sphere {"},               // broken SDL
		{Scene: "newton:4", W: -1, H: 10}, // bad resolution
		{Scene: "newton:4", StartFrame: 9, EndFrame: 12}, // out of range
		{Scene: "newton:4", Scheme: "nope"},              // unknown scheme
		{Scene: "newton:4", Driver: "pvm"},               // unknown driver
		{Scene: "newton:4", ObjSpaceShards: 1},           // 1 shard = use replicated
		{Scene: "newton:4", ObjSpaceShards: -2},          // negative shards
		{Scene: "newton:4", ObjSpaceShards: 1000},        // beyond MaxShards
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}

// TestObjSpaceJob renders a job with the scene sharded across object-
// space owners: the pixels must match the replicated render of the same
// spec (the cache key deliberately ignores the shard count), the job
// status must surface the forwarding counters, and the service's
// aggregate must keep every shard's.
func TestObjSpaceJob(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	ref, err := s.Submit(JobSpec{Scene: "meshgallery:2", W: 40, H: 30})
	if err != nil {
		t.Fatal(err)
	}
	ref = waitDone(t, s, ref.ID)
	if ref.State != StateDone {
		t.Fatalf("replicated job: %s (%s)", ref.State, ref.Error)
	}
	if ref.RaysForwarded != 0 {
		t.Fatalf("replicated job forwarded %d rays", ref.RaysForwarded)
	}

	// Different samples so the sharded job cannot be served from the
	// replicated job's cache entries.
	st, err := s.Submit(JobSpec{Scene: "meshgallery:2", W: 40, H: 30, Samples: 2, ObjSpaceShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("sharded job: %s (%s)", st.State, st.Error)
	}
	if st.RaysForwarded == 0 || st.ForwardBytes == 0 {
		t.Fatalf("sharded job recorded no forwarding: %+v", st)
	}
	if st.PeakResidentBytes == 0 {
		t.Error("sharded job recorded no per-shard resident size")
	}

	// /metrics prints the aggregate by shard (TestMetricsAndStatusGolden).
	agg := s.scrape().objspace
	if !agg.Enabled() || agg.RaysForwarded != st.RaysForwarded || len(agg.PerShard) != 3 {
		t.Errorf("service aggregate %+v does not match job %d over 3 shards", agg, st.RaysForwarded)
	}
}

// TestMissingRuns covers the gap-grouping used for overlapping jobs.
func TestMissingRuns(t *testing.T) {
	runs := missingRuns([]bool{true, false, true, true, false, true}, 10)
	want := [][2]int{{10, 11}, {12, 14}, {15, 16}}
	if !slices.Equal(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
}

// TestCoherentJobOverCameraCut renders the gallery's camera cut under
// coherence in one farm run — the master splits the run at the cut — and
// gets the frames of a plain render.
func TestCoherentJobOverCameraCut(t *testing.T) {
	const frames = 8
	for _, driver := range []string{"local", "virtual"} {
		t.Run(driver, func(t *testing.T) {
			render := func(plain bool) ([]*fb.Framebuffer, uint64) {
				s := New(Config{})
				defer s.Close()
				st, err := s.Submit(JobSpec{Scene: "gallery:8", W: 40, H: 30, Driver: driver, Plain: plain})
				if err != nil {
					t.Fatal(err)
				}
				if st = waitDone(t, s, st.ID); st.State != StateDone {
					t.Fatalf("plain=%v: %s (%s)", plain, st.State, st.Error)
				}
				var out []*fb.Framebuffer
				for f := 0; f < frames; f++ {
					img, _, err := s.frame(st.ID, f)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, img)
				}
				return out, s.leaser.Stats().Leases
			}
			want, _ := render(true)
			got, leases := render(false)
			if leases != 1 {
				t.Errorf("coherent job made %d farm runs, want 1", leases)
			}
			for f := range want {
				if !bytes.Equal(got[f].Pix, want[f].Pix) {
					t.Errorf("frame %d differs from the plain render", f)
				}
			}
		})
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data Event
}

// readSSE consumes an SSE stream until the terminal event.
func readSSE(t *testing.T, body *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev := sseEvent{name: name}
			if name != "status" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
					t.Fatalf("bad SSE data %q: %v", line, err)
				}
			}
			events = append(events, ev)
			if name == "done" || name == "failed" || name == "cancelled" {
				return events
			}
		}
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: submit, SSE progress,
// status poll, frame download in each format, cancel. /metrics has its
// golden (TestMetricsAndStatusGolden).
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit.
	body, _ := json.Marshal(JobSpec{Scene: "newton:4", W: 60, H: 80})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Stream progress until done.
	evResp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, bufio.NewReader(evResp.Body))
	evResp.Body.Close()
	frames := 0
	for _, ev := range events {
		if ev.name == "frame" {
			frames++
		}
	}
	if frames != 4 {
		t.Fatalf("saw %d frame events, want 4 (events: %+v)", frames, events)
	}
	if last := events[len(events)-1]; last.name != "done" {
		t.Fatalf("last event = %s, want done", last.name)
	}

	// Poll status.
	stResp, err := http.Get(srv.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled Status
	if err := json.NewDecoder(stResp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if polled.State != StateDone {
		t.Fatalf("polled state = %s", polled.State)
	}

	// Fetch frame 0 as TGA and compare with the in-process framebuffer.
	want, _, err := s.frame(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"", "?format=ppm", "?format=png"} {
		fResp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/frames/0" + format)
		if err != nil {
			t.Fatal(err)
		}
		if fResp.StatusCode != http.StatusOK {
			t.Fatalf("frame fetch %q status = %d", format, fResp.StatusCode)
		}
		if format == "?format=ppm" {
			// A P6 file is its header, then the frame's RGB bytes.
			body, err := io.ReadAll(fResp.Body)
			fResp.Body.Close()
			if err != nil || !bytes.Equal(body, encoded(t, tga.EncodePPM, want)) {
				t.Fatalf("downloaded PPM differs from EncodePPM of the rendered frame (%v)", err)
			}
			continue
		}
		var got *fb.Framebuffer
		if format == "" {
			got, err = tga.Decode(fResp.Body)
		} else {
			var decoded image.Image
			if decoded, err = png.Decode(fResp.Body); err == nil {
				got = tga.FromImage(decoded)
			}
		}
		fResp.Body.Close()
		if err != nil {
			t.Fatalf("decode %q: %v", format, err)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("downloaded frame (%q) differs from rendered frame", format)
		}
	}

	// Unknown job and out-of-range frame 404. An unclosed body would
	// keep its keep-alive connection's goroutines alive past the test.
	for _, path := range []string{"/jobs/nope", "/jobs/" + st.ID + "/frames/99"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, r.StatusCode)
		}
	}

	// Resubmit: served from cache.
	resp2, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st2 Status
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	final := waitDone(t, s, st2.ID)
	if final.RaysTraced != 0 || final.CacheHits != 4 {
		t.Fatalf("resubmitted job rays=%d hits=%d, want 0 and 4", final.RaysTraced, final.CacheHits)
	}

	// Cancel endpoint on a finished job is a no-op 200.
	cResp, err := http.Post(srv.URL+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cResp.Body.Close()
	if cResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel finished job status = %d", cResp.StatusCode)
	}
}

// TestMetricsQueueDepthAccurate pins the queue-depth gauge while jobs
// are actually waiting.
func TestMetricsQueueDepthAccurate(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	blocker, err := s.Submit(JobSpec{Scene: "newton:30", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), "nowrender_queue_depth 2") {
		t.Fatalf("metrics do not report queue depth 2:\n%s", buf.String())
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSSEOnFinishedJob: a late subscriber gets a terminal status
// snapshot and the stream ends immediately.
func TestSSEOnFinishedJob(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), "event: status") || !strings.Contains(buf.String(), `"state":"done"`) {
		t.Fatalf("late SSE stream = %q", buf.String())
	}
}

// TestQueueFull rejects submissions beyond QueueCap.
func TestQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueCap: 1})
	defer s.Close()
	blocker, err := s.Submit(JobSpec{Scene: "newton:30", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart", W: 32, H: 32}); err == nil {
		t.Fatal("third submission accepted with QueueCap 1")
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServiceClose cancels everything and rejects new work.
func TestServiceClose(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	st, err := s.Submit(JobSpec{Scene: "newton:30", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := s.JobStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.State.Terminal() {
		t.Fatalf("job state after Close = %s", got.State)
	}
	if _, err := s.Submit(JobSpec{Scene: "quickstart"}); err == nil {
		t.Fatal("submit after Close accepted")
	}
}

// TestNegativeCacheBytesDisablesCaching pins the Config contract:
// CacheBytes < 0 means no frame reuse (framecache itself reads
// budget <= 0 as unlimited, so the service must translate). With no
// entry to keep a frame's file on, the handler still answers every TGA
// fetch with the right sized bytes.
func TestNegativeCacheBytesDisablesCaching(t *testing.T) {
	s := New(Config{CacheBytes: -1})
	defer s.Close()
	spec := JobSpec{Scene: "newton:2", W: 40, H: 40}
	for i := 0; i < 2; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, s, st.ID); st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if st.CacheHits != 0 || st.RaysTraced == 0 {
			t.Fatalf("job %d hits=%d rays=%d: caching not disabled", i, st.CacheHits, st.RaysTraced)
		}
		for frame := 0; frame < 2; frame++ {
			img, _, err := s.frame(st.ID, frame)
			if err != nil {
				t.Fatal(err)
			}
			want := encoded(t, tga.Encode, img)
			rec := fetchFrame(s.Handler(), st.ID, frame, "")
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) ||
				rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
				t.Fatalf("job %d frame %d: status %d, Content-Length %q, body equal=%v", i, frame,
					rec.Code, rec.Header().Get("Content-Length"), bytes.Equal(rec.Body.Bytes(), want))
			}
		}
	}
	if cs := s.CacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("cache entries=%d bytes=%d, want 0/0", cs.Entries, cs.Bytes)
	}
}
