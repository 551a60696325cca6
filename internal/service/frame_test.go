package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/tga"
)

// renderJob submits spec and waits for it to finish successfully.
func renderJob(t testing.TB, s *Service, spec JobSpec) Status {
	t.Helper()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, s, st.ID); st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	return st
}

// encoded runs one of the tga package's encoders into memory.
func encoded(t testing.TB, enc func(io.Writer, *fb.Framebuffer) error, img *fb.Framebuffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fetchFrame GETs a frame through h without a network in between.
func fetchFrame(h http.Handler, id string, frame int, query string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/jobs/%s/frames/%d%s", id, frame, query), nil))
	return rec
}

// TestFrameFetchIsSizedBytes: a TGA GET carries Content-Length and is
// not chunked; the file is run-length, smaller than the uncompressed
// one; the first fetch (which builds the file), the second
// (which finds it on the cache entry) and a fetch through a second job
// served from cache all return exactly tga.Encode of the frame; the file
// is charged to the cache once; PPM and PNG bodies are what their
// encoders write.
func TestFrameFetchIsSizedBytes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := JobSpec{Scene: "newton:3", W: 60, H: 80}
	first := renderJob(t, s, spec)
	img, _, err := s.frame(first.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, tga.Encode, img)
	if len(want) >= 18+3*60*80 || want[2] != 10 {
		t.Fatalf("reference TGA is %d bytes of image type %d, want run-length (10) and under the uncompressed %d",
			len(want), want[2], 18+3*60*80)
	}
	get := func(id, query string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/jobs/" + id + "/frames/1" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: status %d, read error %v", id, query, resp.StatusCode, err)
		}
		if query == "" {
			if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("GET %s: Content-Length %d, Transfer-Encoding %v; want %d and none",
					id, resp.ContentLength, resp.TransferEncoding, len(want))
			}
			if ct := resp.Header.Get("Content-Type"); ct != "image/x-tga" {
				t.Errorf("GET %s: Content-Type %q", id, ct)
			}
		}
		return body
	}
	for _, fetch := range []string{"first", "second"} {
		if !bytes.Equal(get(first.ID, ""), want) {
			t.Fatalf("%s fetch differs from tga.Encode of the frame", fetch)
		}
	}
	cs := s.CacheStats()
	if cs.EncodedBytes != uint64(len(want)) || cs.Bytes != 3*uint64(len(img.Pix))+cs.EncodedBytes {
		t.Errorf("cache bytes=%d encoded=%d after two fetches of one frame, want %d and %d",
			cs.Bytes, cs.EncodedBytes, 3*len(img.Pix)+len(want), len(want))
	}

	second := renderJob(t, s, spec)
	if second.CacheHits != 3 || second.RaysTraced != 0 {
		t.Fatalf("second job hits=%d rays=%d, want 3 and 0", second.CacheHits, second.RaysTraced)
	}
	before := s.CacheStats()
	if !bytes.Equal(get(second.ID, ""), want) {
		t.Fatal("fetch through the cache-served job differs")
	}
	if after := s.CacheStats(); after.EncodedBytes != before.EncodedBytes || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("a repeat fetch moved the cache: %+v -> %+v", before, after)
	}

	if !bytes.Equal(get(first.ID, "?format=ppm"), encoded(t, tga.EncodePPM, img)) {
		t.Error("PPM body differs from tga.EncodePPM")
	}
	if !bytes.Equal(get(first.ID, "?format=png"), encoded(t, tga.EncodePNG, img)) {
		t.Error("PNG body differs from tga.EncodePNG")
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if gauge := fmt.Sprintf("nowrender_cache_encoded_bytes %d\n", len(want)); !strings.Contains(rec.Body.String(), gauge) {
		t.Errorf("metrics lack %q", gauge)
	}
}

// TestFrameFetchUnencodable: a frame wider than TGA's 16-bit header
// fields is answered 500 with the encoder's error — not 200 with an
// empty body — while a format that can hold it still serves it. The
// farm refuses sides past wire.MaxDim, so no job renders such a frame
// today; the test plants one on a finished job.
func TestFrameFetchUnencodable(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	st := renderJob(t, s, JobSpec{Scene: "newton:1", W: 40, H: 40})
	s.mu.Lock()
	s.jobs[st.ID].frames[0] = fb.New(65536, 1)
	s.mu.Unlock()
	h := s.Handler()
	rec := fetchFrame(h, st.ID, 0, "")
	if rec.Code != http.StatusInternalServerError ||
		rec.Header().Get("Content-Type") != "application/json" ||
		!strings.Contains(rec.Body.String(), "exceeds format limits") {
		t.Fatalf("TGA of a 65536x1 frame: status %d, type %q, body %q", rec.Code,
			rec.Header().Get("Content-Type"), rec.Body.String())
	}
	if rec := fetchFrame(h, st.ID, 0, "?format=ppm"); rec.Code != http.StatusOK || rec.Body.Len() < 3*65536 {
		t.Errorf("PPM of the same frame: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

// TestFrameErrorsAreTyped: Frame's failures match their sentinels, keep
// their messages, and map to 404 (unknown job, frame out of range) or
// 409 (frame not rendered yet).
func TestFrameErrorsAreTyped(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	st, err := s.Submit(JobSpec{Scene: "newton:45", W: 120, H: 160})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cases := []struct {
		id    string
		frame int
		kind  error
		code  int
		msg   string
	}{
		{"job-9999", 0, ErrNoFrame, http.StatusNotFound, `service: no job "job-9999"`},
		{st.ID, 45, ErrNoFrame, http.StatusNotFound, "service: frame 45 outside job range [0,45)"},
		{st.ID, 44, ErrFrameNotReady, http.StatusConflict, "service: frame 44 not rendered yet"},
	}
	for _, tc := range cases {
		_, _, err := s.frame(tc.id, tc.frame)
		if !errors.Is(err, tc.kind) || err.Error() != tc.msg {
			t.Errorf("Frame(%s, %d) = %v; want %q matching %v", tc.id, tc.frame, err, tc.msg, tc.kind)
		}
		other := ErrNoFrame
		if tc.kind == ErrNoFrame {
			other = ErrFrameNotReady
		}
		if errors.Is(err, other) {
			t.Errorf("Frame(%s, %d) also matches %v", tc.id, tc.frame, other)
		}
		rec := fetchFrame(h, tc.id, tc.frame, "")
		if rec.Code != tc.code || !strings.Contains(rec.Body.String(), strings.ReplaceAll(tc.msg, `"`, `\"`)) {
			t.Errorf("GET %s/frames/%d: status %d body %q; want %d with %q", tc.id, tc.frame,
				rec.Code, rec.Body.String(), tc.code, tc.msg)
		}
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
}

// warmFetcher renders one cold job and returns a function that GETs its
// frames in turn through the real handler into a reused recorder, so
// what a call allocates is the server's doing, and the frames' mean
// file size.
func warmFetcher(t testing.TB) (fetch func(), frameBytes int) {
	s := New(Config{})
	t.Cleanup(s.Close)
	const frames = 4
	st := renderJob(t, s, JobSpec{Scene: fmt.Sprintf("newton:%d", frames), W: 120, H: 160})
	h := s.Handler()
	reqs := make([]*http.Request, frames)
	sizes := make([]int, frames)
	for i := range reqs {
		img, _, err := s.frame(st.ID, i)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(encoded(t, tga.Encode, img))
		frameBytes += sizes[i] / frames
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/jobs/%s/frames/%d", st.ID, i), nil)
		if rec := fetchFrame(h, st.ID, i, ""); rec.Code != http.StatusOK || rec.Body.Len() != sizes[i] {
			t.Fatalf("first fetch of frame %d: status %d, %d bytes, want %d", i, rec.Code, rec.Body.Len(), sizes[i])
		}
	}
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, 2*slices.Max(sizes)))
	next := 0
	return func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, reqs[next%frames])
		if want := sizes[next%frames]; rec.Body.Len() != want {
			t.Fatalf("warm fetch returned %d bytes, want %d", rec.Body.Len(), want)
		}
		next++
	}, frameBytes
}

// TestWarmFetchAllocatesNoFrame: once a frame's file is on its cache
// entry, serving it again allocates nothing the size of a frame — only
// the router's and the header's small change.
func TestWarmFetchAllocatesNoFrame(t *testing.T) {
	fetch, frameBytes := warmFetcher(t)
	const runs = 200
	perFetch, allocs := heappin.PerCall(t, runs, fetch)
	t.Logf("warm TGA fetch: %d allocations, %d bytes (a frame is %d)", allocs, perFetch, frameBytes)
	if perFetch > uint64(frameBytes)/8 {
		t.Errorf("a warm TGA fetch allocates %d bytes; a frame is %d, so something frame-sized is rebuilt per fetch",
			perFetch, frameBytes)
	}
	if allocs > 30 {
		t.Errorf("a warm TGA fetch makes %d allocations, want a handful", allocs)
	}
}

// BenchmarkFrameFetchWarm is the service's hot path — a GET of a frame
// whose file is already on its cache entry — through the real handler.
// Profile it with -cpuprofile before reaching for a harness.
func BenchmarkFrameFetchWarm(b *testing.B) {
	fetch, frameBytes := warmFetcher(b)
	b.SetBytes(int64(frameBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
