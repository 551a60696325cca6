package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/service"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
	"nowrender/internal/timeline"
)

// workload is one benchmark scenario. The harness calls setup once per
// set-up, then prepare/run/finish once per repetition (only run is
// timed), then close.
type workload interface {
	common() *base
	// setup builds the scene, renders the reference and starts whatever
	// outlives a repetition.
	setup(tr *tracer) error
	// prepare is the untimed prologue of one repetition; record says
	// whether the program's own timeline is to be recorded.
	prepare(record bool) error
	// run is the timed repetition: go -> last frame in the client's hands.
	run(tr *tracer) (*repOut, error)
	// finish is the untimed epilogue of one repetition.
	finish()
	// close releases what setup started.
	close()
	// layers fills the workload's per-layer metrics from the traced and
	// untraced repetitions and from probes on inputs captured from them.
	layers(tr *tracer, traced *repOut, m metrics) error
}

type metrics map[string]float64

// repOut is what one repetition produced.
type repOut struct {
	makespan, firstFrame time.Duration
	// frames are the delivered frames in window order (nil = missing).
	// The service workload compares TGA bytes as they arrive instead and
	// reports attempted/failed itself.
	frames            []*fb.Framebuffer
	attempted, failed int
	rays              uint64
	// cpu and alloc are the process CPU time and heap bytes the harness
	// measured around run.
	cpu   time.Duration
	alloc uint64

	engine  *coherence.Engine // newton-fc
	reports []coherence.FrameReport
	run     stats.RunStats     // newton-fc
	farm    *farm.Result       // farm workloads
	tl      *timeline.Timeline // the program's merged timeline, when recorded
	svc     *serviceOut
}

// base is what every workload shares: the scene, the frame window the
// seed picked, and the brute-force reference every delivered frame is
// compared with.
type base struct {
	sz         sizes
	spec       string
	w, h       int
	start, end int
	workers    int

	// tweak, when non-nil, edits the freshly built scene (the seed's part
	// of the input that a scene spec cannot express).
	tweak func(*scene.Scene)

	sc         *scene.Scene
	sceneBuild time.Duration
	ref        []*fb.Framebuffer
	refRun     stats.RunStats
	refTime    time.Duration // the whole reference pass
	refFirst   time.Duration // ... up to its first frame

	// corrupt, when set, flips one byte of the next frame compared: the
	// oracle's self-test.
	corrupt bool
}

func newtonBase(sz sizes, seed int) base {
	s := seed % newtonPeriod
	return base{sz: sz, spec: newtonSpec, w: sz.NewtonW, h: sz.NewtonH, start: s, end: s + sz.NewtonFrames, workers: workerCount()}
}

func meshBase(sz sizes, seed int) base {
	phase := float64(seed%meshPhases) / meshPhases
	return base{
		sz: sz, spec: fmt.Sprintf("meshgallery:%d", sz.MeshFrames), w: sz.MeshW, h: sz.MeshH,
		start: 0, end: sz.MeshFrames, workers: workerCount(),
		tweak: func(sc *scene.Scene) {
			dolly := sc.CamTrack
			sc.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
				cam, next := dolly.CameraAt(f), dolly.CameraAt(f+1)
				cam.Pos = cam.Pos.Add(next.Pos.Sub(cam.Pos).Scale(phase))
				return cam
			})
		},
	}
}

// workerCount is min(2, nproc): load is generated from one process.
func workerCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func (b *base) common() *base { return b }
func (b *base) frames() int   { return b.end - b.start }
func (b *base) full() fb.Rect { return fb.NewRect(0, 0, b.w, b.h) }

// setupRef builds the scene and renders the brute-force reference, which
// doubles as warm-up.
func (b *base) setupRef(tr *tracer) error {
	done := tr.begin("scenes.FromSpec")
	t := time.Now()
	sc, err := scenes.FromSpec(b.spec)
	b.sceneBuild = time.Since(t)
	done()
	if err != nil {
		return err
	}
	if b.tweak != nil {
		b.tweak(sc)
	}
	b.sc = sc
	b.ref = make([]*fb.Framebuffer, b.frames())
	done = tr.begin("reference coherence.FullRender")
	t = time.Now()
	b.refRun, err = coherence.FullRender(sc, b.w, b.h, b.full(), b.start, b.end, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			if f == b.start {
				b.refFirst = time.Since(t)
			}
			b.ref[f-b.start] = img
			return nil
		})
	b.refTime = time.Since(t)
	done()
	return err
}

// totalRays sums a run's rays of every kind.
func totalRays(run stats.RunStats) uint64 {
	rays := run.TotalRays()
	return rays.Total()
}

// digest identifies the reference frames.
func (b *base) digest() string {
	h := sha256.New()
	for _, img := range b.ref {
		h.Write(img.Pix)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// same is the oracle's comparison of one delivered frame with what the
// reference says it must be.
func (b *base) same(got, want []byte) bool {
	if b.corrupt && len(got) > 0 {
		b.corrupt = false
		got = append([]byte(nil), got...)
		got[len(got)/2] ^= 0xff
	}
	return bytes.Equal(got, want)
}

// check counts the delivered frames that are missing or differ from the
// reference.
func (b *base) check(frames []*fb.Framebuffer) (attempted, failed int) {
	attempted = b.frames()
	for i, want := range b.ref {
		if i >= len(frames) || frames[i] == nil || !b.same(frames[i].Pix, want.Pix) {
			failed++
		}
	}
	return attempted, failed
}

// frameSpans turns per-frame emit callbacks into one span per frame.
type frameSpans struct {
	tr   *tracer
	done func()
}

func (fs *frameSpans) next(more bool) {
	if fs.done != nil {
		fs.done()
		fs.done = nil
	}
	if more {
		fs.done = fs.tr.begin("frame")
	}
}

// noPrologue is embedded by workloads whose repetitions need nothing
// around run.
type noPrologue struct{}

func (noPrologue) prepare(bool) error { return nil }
func (noPrologue) finish()            {}
func (noPrologue) close()             {}

// --- newton-plain ------------------------------------------------------

type plainWL struct {
	base
	noPrologue
}

func newPlain(sz sizes, seed int) workload { return &plainWL{base: newtonBase(sz, seed)} }

func (p *plainWL) setup(tr *tracer) error { return p.setupRef(tr) }

func (p *plainWL) run(tr *tracer) (*repOut, error) {
	out := &repOut{frames: make([]*fb.Framebuffer, p.frames())}
	fs := frameSpans{tr: tr}
	start := time.Now()
	done := tr.begin("coherence.FullRender")
	fs.next(true)
	run, err := coherence.FullRender(p.sc, p.w, p.h, p.full(), p.start, p.end, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			if out.firstFrame == 0 {
				out.firstFrame = time.Since(start)
			}
			out.frames[f-p.start] = img
			fs.next(f+1 < p.end)
			return nil
		})
	fs.next(false)
	done()
	out.makespan = time.Since(start)
	out.rays = totalRays(run)
	return out, err
}

// --- newton-fc ---------------------------------------------------------

type fcWL struct {
	base
	noPrologue
}

func newFC(sz sizes, seed int) workload { return &fcWL{base: newtonBase(sz, seed)} }

func (c *fcWL) setup(tr *tracer) error { return c.setupRef(tr) }

func (c *fcWL) run(tr *tracer) (*repOut, error) {
	out := &repOut{frames: make([]*fb.Framebuffer, c.frames())}
	fs := frameSpans{tr: tr}
	start := time.Now()
	done := tr.begin("coherence.NewEngine")
	eng, err := coherence.NewEngine(c.sc, c.w, c.h, c.full(), c.start, c.end, coherence.Options{Threads: 1})
	done()
	if err != nil {
		return out, err
	}
	done = tr.begin("Engine.RenderSequence")
	fs.next(true)
	run, err := eng.RenderSequence(func(f int, img *fb.Framebuffer, rep coherence.FrameReport) error {
		if out.firstFrame == 0 {
			out.firstFrame = time.Since(start)
		}
		out.frames[f-c.start] = img
		out.reports = append(out.reports, rep)
		fs.next(f+1 < c.end)
		return nil
	})
	fs.next(false)
	done()
	out.makespan = time.Since(start)
	out.engine, out.run, out.rays = eng, run, totalRays(run)
	return out, err
}

// --- farm workloads ----------------------------------------------------

// farmOut fills a repOut from a farm result.
func farmOut(out *repOut, res *farm.Result) {
	if res == nil {
		return
	}
	out.farm, out.tl, out.rays = res, res.Timeline, totalRays(res.Run)
	for i, img := range res.Frames {
		if i < len(out.frames) {
			out.frames[i] = img
		}
	}
}

// farmConfig is the part of farm.Config both farm workloads share.
func (b *base) farmConfig(out *repOut, start time.Time, rec *timeline.Recorder) farm.Config {
	return farm.Config{
		Scene: b.sc, W: b.w, H: b.h,
		StartFrame: b.start, EndFrame: b.end,
		Workers: b.workers, Threads: 1,
		WireSpanCodec: true,
		Timeline:      rec,
		OnFrame: func(int, *fb.Framebuffer) error {
			if out.firstFrame == 0 {
				out.firstFrame = time.Since(start)
			}
			return nil
		},
	}
}

func newRecorder(record bool) *timeline.Recorder {
	if !record {
		return nil
	}
	return timeline.New(0)
}

// fcFarmWL is Table 1 column (8) over loopback TCP.
type fcFarmWL struct {
	base
	ln      *msg.Listener
	hub     *msg.Hub
	rec     *timeline.Recorder
	stop    context.CancelFunc
	exited  chan error
	started int
}

func newFCFarm(sz sizes, seed int) workload { return &fcFarmWL{base: newtonBase(sz, seed)} }

func (w *fcFarmWL) scheme() partition.Scheme {
	return partition.FrameDivision{BlockW: w.sz.NewtonBlock, BlockH: w.sz.NewtonBlock, Adaptive: true}
}

func (w *fcFarmWL) setup(tr *tracer) error {
	if err := w.setupRef(tr); err != nil {
		return err
	}
	defer tr.begin("msg.Listen")()
	ln, err := msg.Listen("127.0.0.1:0")
	w.ln = ln
	return err
}

// prepare connects the workers: RunMaster shuts its fleet down when the
// run ends, so every repetition dials a fresh one.
func (w *fcFarmWL) prepare(record bool) error {
	w.rec = newRecorder(record)
	w.hub = msg.NewHub()
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	w.exited = make(chan error, w.workers)
	w.started = 0
	for i := 0; i < w.workers; i++ {
		conn, err := msg.Dial(w.ln.Addr())
		if err != nil {
			return err
		}
		server, err := w.ln.Accept()
		if err != nil {
			conn.Close()
			return err
		}
		name := fmt.Sprintf("tcp%02d", i)
		if err := w.hub.Attach(name, server); err != nil {
			conn.Close()
			return err
		}
		w.started++
		go func() {
			err := farm.RunWorkerWithOptions(ctx, name, conn, w.sc, farm.WorkerOptions{})
			conn.Close()
			w.exited <- err
		}()
	}
	return nil
}

func (w *fcFarmWL) run(tr *tracer) (*repOut, error) {
	out := &repOut{frames: make([]*fb.Framebuffer, w.frames())}
	start := time.Now()
	cfg := w.farmConfig(out, start, w.rec)
	cfg.Scheme = w.scheme()
	cfg.Coherence = true
	cfg.WireDelta = true
	done := tr.begin("farm.RunMaster")
	res, err := farm.RunMaster(cfg, w.hub)
	done()
	out.makespan = time.Since(start)
	farmOut(out, res)
	return out, err
}

func (w *fcFarmWL) finish() {
	if w.hub == nil {
		return
	}
	w.hub.Close()
	w.stop()
	for i := 0; i < w.started; i++ {
		<-w.exited
	}
	w.hub = nil
}

func (w *fcFarmWL) close() {
	w.finish()
	if w.ln != nil {
		w.ln.Close()
		w.ln = nil
	}
}

// meshFarmWL is the moving-camera mesh scene, object-space sharded, over
// in-process pipes.
type meshFarmWL struct {
	base
	noPrologue
	rec *timeline.Recorder
}

func newMeshFarm(sz sizes, seed int) workload { return &meshFarmWL{base: meshBase(sz, seed)} }

func (w *meshFarmWL) scheme() partition.Scheme {
	return partition.FrameDivision{BlockW: w.sz.MeshBlockW, BlockH: w.sz.MeshBlockH, Adaptive: true}
}

func (w *meshFarmWL) setup(tr *tracer) error { return w.setupRef(tr) }

func (w *meshFarmWL) prepare(record bool) error {
	w.rec = newRecorder(record)
	return nil
}

func (w *meshFarmWL) run(tr *tracer) (*repOut, error) {
	out := &repOut{frames: make([]*fb.Framebuffer, w.frames())}
	start := time.Now()
	cfg := w.farmConfig(out, start, w.rec)
	cfg.Scheme = w.scheme()
	cfg.ObjSpaceShards = 4
	done := tr.begin("farm.RenderLocal")
	res, err := farm.RenderLocal(cfg)
	done()
	out.makespan = time.Since(start)
	farmOut(out, res)
	return out, err
}

// --- newton-service-replay ---------------------------------------------

// serviceOut is what the closed-loop client saw in one repetition.
type serviceOut struct {
	cold       service.Status
	coldClient time.Duration
	warmJobs   []time.Duration
	warmPhase  time.Duration
	fetches    []time.Duration // warm-phase frame GETs
	afterCold  stats.CacheStats
	afterWarm  stats.CacheStats
	wire       stats.WireStats
	scrapes    []time.Duration // GET /metrics, traced repetitions only
}

type serviceWL struct {
	base
	refTGA [][]byte
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

func newService(sz sizes, seed int) workload { return &serviceWL{base: newtonBase(sz, seed)} }

func (w *serviceWL) setup(tr *tracer) error {
	if err := w.setupRef(tr); err != nil {
		return err
	}
	defer tr.begin("tga.Encode reference")()
	w.refTGA = make([][]byte, len(w.ref))
	for i, img := range w.ref {
		var buf bytes.Buffer
		if err := tga.Encode(&buf, img); err != nil {
			return err
		}
		w.refTGA[i] = buf.Bytes()
	}
	return nil
}

// prepare starts a fresh service, so every repetition's first job is
// cold and its resubmits are warm.
func (w *serviceWL) prepare(record bool) error {
	w.svc = service.New(service.Config{
		Workers: w.workers, Threads: 1, DefaultDriver: "local",
		WireDelta: true, WireSpanCodec: true, Timeline: record,
	})
	w.srv = httptest.NewServer(w.svc.Handler())
	w.client = w.srv.Client()
	return nil
}

func (w *serviceWL) finish() {
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.srv.Close()
		w.svc.Close()
		w.srv, w.svc = nil, nil
	}
}

func (w *serviceWL) close() { w.finish() }

func (w *serviceWL) run(tr *tracer) (*repOut, error) {
	so := &serviceOut{}
	out := &repOut{svc: so}
	start := time.Now()
	cold, err := w.job(tr, out, start, nil)
	so.coldClient = time.Since(start)
	if err != nil {
		// A failed job loses all its frames and counts as a failure itself.
		out.makespan = time.Since(start)
		return out, err
	}
	so.afterCold = w.svc.CacheStats()
	warmStart := time.Now()
	for i := 0; i < w.sz.WarmJobs; i++ {
		t := time.Now()
		if _, err := w.job(tr, out, start, &so.fetches); err != nil {
			out.makespan = time.Since(start)
			return out, err
		}
		so.warmJobs = append(so.warmJobs, time.Since(t))
	}
	so.warmPhase = time.Since(warmStart)
	out.makespan = time.Since(start)

	so.afterWarm = w.svc.CacheStats()
	so.wire = w.svc.WireStats()
	if st, err := w.svc.JobStatus(cold); err == nil {
		so.cold = st
		out.rays = st.RaysTraced
	}
	if tl, err := w.svc.JobTimeline(cold); err == nil {
		out.tl = tl
	}
	if tr != nil {
		done := tr.begin("GET /metrics x20")
		so.scrapes, err = w.scrape(20)
		done()
	}
	return out, err
}

// job submits one render of the window and fetches every frame as TGA
// as its event arrives, comparing each with the reference. It returns
// the job id.
func (w *serviceWL) job(tr *tracer, out *repOut, start time.Time, fetches *[]time.Duration) (string, error) {
	defer tr.begin("job")()
	out.attempted += w.frames() + 1 // the frames, and the job itself
	fetched := 0
	fail := func(err error) (string, error) {
		out.failed += w.frames() - fetched + 1
		return "", err
	}

	spec, _ := json.Marshal(service.JobSpec{
		Scene: w.spec, W: w.w, H: w.h, StartFrame: w.start, EndFrame: w.end, Scheme: "framediv",
	})
	done := tr.begin("POST /jobs")
	resp, err := w.client.Post(w.srv.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		done()
		return fail(err)
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	done()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("submit: status %d: %v", resp.StatusCode, err))
	}

	got := make([]bool, w.frames())
	fetch := func(frame int) {
		i := frame - w.start
		if i < 0 || i >= len(got) || got[i] {
			return
		}
		got[i] = true
		fetched++
		t := time.Now()
		done := tr.begin("GET frame")
		body, err := w.get(fmt.Sprintf("/jobs/%s/frames/%d", st.ID, frame))
		done()
		if fetches != nil {
			*fetches = append(*fetches, time.Since(t))
		}
		if err != nil || !w.same(body, w.refTGA[i]) {
			out.failed++
		}
		if out.firstFrame == 0 {
			out.firstFrame = time.Since(start)
		}
	}
	fetchRest := func() {
		for f := w.start; f < w.end; f++ {
			fetch(f)
		}
	}

	done = tr.begin("GET events")
	defer done()
	resp, err = w.client.Get(w.srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "status":
				// The opening snapshot; a job that already finished sends
				// nothing more.
				var snap service.Status
				if err := json.Unmarshal([]byte(data), &snap); err != nil {
					return fail(err)
				}
				if snap.State == service.StateDone {
					fetchRest()
					return st.ID, nil
				}
				if snap.State.Terminal() {
					return fail(fmt.Errorf("job %s: %s: %s", st.ID, snap.State, snap.Error))
				}
			case "frame":
				var ev service.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fail(err)
				}
				fetch(ev.Frame)
			case "done":
				fetchRest()
				return st.ID, nil
			case "failed", "cancelled":
				return fail(fmt.Errorf("job %s %s: %s", st.ID, event, data))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	return fail(fmt.Errorf("job %s: event stream ended before the job did", st.ID))
}

func (w *serviceWL) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape times n GET /metrics requests against the live service.
func (w *serviceWL) scrape(n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := w.get("/metrics"); err != nil {
			return out, err
		}
		out = append(out, time.Since(t))
	}
	return out, nil
}
