package farm

import (
	"context"
	"errors"
	"testing"
	"time"

	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
)

// runChecked is runMaster with the master's invariants (check) asserted
// after every event; a violation fails the test and ends the run.
func runChecked(t *testing.T, cfg Config, ln link, sinks *sinkControl) (*Result, error) {
	t.Helper()
	m, err := newMaster(cfg, ln, sinks)
	if err != nil {
		return nil, err
	}
	for n := 1; m.framesRemaining > 0; n++ {
		e, err := ln.Recv()
		if err := m.step(e, err); err != nil {
			return m.res, err
		}
		if err := m.check(); err != nil {
			t.Errorf("after event %d (tag %d from %q): %v", n, e.Tag, e.From, err)
			return m.res, err
		}
	}
	return m.finish()
}

// checked is runChecked as the loop a driver runs: renderLocal(cfg,
// checked(t)) is RenderLocal with the invariants asserted throughout.
func checked(t *testing.T) masterLoop {
	return func(cfg Config, ln link, sinks *sinkControl) (*Result, error) {
		return runChecked(t, cfg, ln, sinks)
	}
}

// joinedFirst is checked over a link that holds back what joined workers
// send until every worker has spoken. On a real link a worker's hello
// can arrive after another worker has finished the whole animation; a
// chaos test that faults one worker's results needs that worker seeded
// with one of the scheme's initial tasks. Every hello must arrive.
func joinedFirst(t *testing.T) masterLoop {
	return func(cfg Config, ln link, sinks *sinkControl) (*Result, error) {
		quiet := make(map[string]bool)
		for _, n := range ln.Names() {
			quiet[n] = true
		}
		return runChecked(t, cfg, &joinLink{link: ln, quiet: quiet}, sinks)
	}
}

type joinLink struct {
	link
	quiet map[string]bool // workers not heard from yet
	held  []msg.Message
}

func (l *joinLink) Recv() (msg.Message, error) {
	for {
		if len(l.quiet) == 0 && len(l.held) > 0 {
			m := l.held[0]
			l.held = l.held[1:]
			return m, nil
		}
		m, err := l.link.Recv()
		switch {
		case err != nil || m.Tag == tagTick || l.quiet[m.From]:
			delete(l.quiet, m.From)
			return m, err
		case len(l.quiet) > 0:
			l.held = append(l.held, m)
		default:
			return m, nil
		}
	}
}

// scriptLink is a link whose traffic a test writes: Recv hands out the
// script in order, moving the clock (settable through now) to each
// entry's time — a tagTick entry is a heartbeat tick at that time — and
// Send and Detach are recorded.
type scriptLink struct {
	names    []string
	script   []scripted
	now      time.Duration
	sent     []scripted // at = when sent, m.From = addressee
	detached []string
}

type scripted struct {
	at time.Duration
	m  msg.Message
}

func (l *scriptLink) Names() []string    { return l.names }
func (l *scriptLink) Now() time.Duration { return l.now }
func (l *scriptLink) Detach(name string) { l.detached = append(l.detached, name) }

func (l *scriptLink) Send(to string, m msg.Message) error {
	m.From = to
	l.sent = append(l.sent, scripted{l.now, m})
	return nil
}

func (l *scriptLink) Recv() (msg.Message, error) {
	if len(l.script) == 0 {
		return msg.Message{}, errors.New("script ran out with frames still owed")
	}
	e := l.script[0]
	l.script = l.script[1:]
	l.now = max(l.now, e.at)
	return e.m, nil
}

// tasksTo decodes the tasks the master sent one worker, in order.
func (l *scriptLink) tasksTo(t *testing.T, name string) []partition.Task {
	t.Helper()
	var tasks []partition.Task
	for _, s := range l.sent {
		if s.m.From == name && s.m.Tag == TagTask {
			tm, err := decodeTask(s.m.Data)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, tm.Task)
		}
	}
	return tasks
}

// Script entries: what worker from says.
func helloFrom(from string) msg.Message {
	return msg.Message{Tag: TagHello, From: from, Data: encodeHello(from)}
}

func pairFrom(from string, tag, a, b int) msg.Message {
	return msg.Message{Tag: tag, From: from, Data: encodePair(a, b)}
}

// resultsFrom is worker from's key-frame results for frames [f0, f1) of
// task (pixels all black: nothing here looks at them).
func resultsFrom(from string, task partition.Task, f0, f1 int) []msg.Message {
	var ms []msg.Message
	for f := f0; f < f1; f++ {
		fd := frameDoneMsg{
			TaskID: task.ID, Frame: f, Region: task.Region,
			Pix: make([]byte, task.Region.Area()*3), Rendered: task.Region.Area(),
		}
		ms = append(ms, msg.Message{Tag: TagFrameDone, From: from, Data: encodeFrameDone(fd)})
	}
	return ms
}

// scriptRun runs the checked master over a script of untimed messages.
func scriptRun(t *testing.T, cfg Config, names []string, script ...[]msg.Message) (*Result, *scriptLink) {
	t.Helper()
	ln := &scriptLink{names: names}
	for _, ms := range script {
		for _, m := range ms {
			ln.script = append(ln.script, scripted{m: m})
		}
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	res, err := runChecked(t, cfg, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, ln
}

func one(m msg.Message) []msg.Message { return []msg.Message{m} }

// TestParkedThiefReleasedWhenVictimRetires: a thief parked on a victim
// that delivers every frame and then dies must not stay parked for the
// rest of the run — the truncate it waits on will never be answered. It
// goes back to giveWork, here stealing from the other busy worker.
func TestParkedThiefReleasedWhenVictimRetires(t *testing.T) {
	const w, h = 8, 8
	full := fb.NewRect(0, 0, w, h)
	task := func(id, f0, f1 int) partition.Task {
		return partition.Task{ID: id, Region: full, StartFrame: f0, EndFrame: f1}
	}
	res, ln := scriptRun(t, Config{
		Scene: farmScene(12), W: w, H: h, Scheme: partition.SequenceDivision{Adaptive: true},
	}, []string{"w0", "w1", "w2"},
		one(helloFrom("w0")), one(helloFrom("w1")), one(helloFrom("w2")), // [0,4) [4,8) [8,12)
		resultsFrom("w2", task(2, 8, 12), 8, 9),
		resultsFrom("w0", task(0, 0, 4), 0, 4),
		one(pairFrom("w0", TagTaskDone, 0, 4)), // w0 steals [6,8) of w1's task and parks
		resultsFrom("w1", task(1, 4, 8), 4, 8),
		one(msg.Message{Tag: msg.TagDown, From: "w1"}), // w1 never acks
		one(pairFrom("w2", TagTruncateAck, 2, 11)),
		resultsFrom("w2", task(2, 8, 12), 9, 11),
		one(pairFrom("w2", TagTaskDone, 2, 11)),
		resultsFrom("w0", task(3, 11, 12), 11, 12),
	)
	got := ln.tasksTo(t, "w0")
	if want := task(3, 11, 12); len(got) != 2 || got[1] != want {
		t.Errorf("w0 was sent tasks %+v, want its first and then %+v stolen from w2", got, want)
	}
	if res.Subdivisions != 1 || res.Faults.WorkersLost != 1 {
		t.Errorf("%d subdivisions, %d workers lost; want 1 and 1", res.Subdivisions, res.Faults.WorkersLost)
	}
}

// TestSpeculativeDuplicateCountsOnce: the straggler's own copy of a frame
// lands first and the speculative copy second; the duplicate is dropped,
// credited to nobody, and does not count the frame down again.
func TestSpeculativeDuplicateCountsOnce(t *testing.T) {
	const w, h = 8, 8
	full := fb.NewRect(0, 0, w, h)
	res, _ := scriptRun(t, Config{
		Scene: farmScene(4), W: w, H: h, Speculate: true,
		Scheme: partition.SequenceDivision{Adaptive: false},
	}, []string{"w0", "w1"},
		one(helloFrom("w0")), one(helloFrom("w1")), // [0,2) [2,4)
		resultsFrom("w0", partition.Task{ID: 0, Region: full}, 0, 2),
		one(pairFrom("w0", TagTaskDone, 0, 2)), // w0 hedges w1: task 2 = [2,4)
		resultsFrom("w1", partition.Task{ID: 1, Region: full}, 2, 3),
		resultsFrom("w0", partition.Task{ID: 2, Region: full}, 2, 4),
	)
	if res.Faults.SpeculativeTasks != 1 || res.Faults.DuplicatesDropped != 1 {
		t.Errorf("faults %s, want one speculative task and one duplicate dropped", res.Faults.String())
	}
	pixels := 0
	for _, ws := range res.Workers {
		pixels += ws.PixelsDone
	}
	if want := 4 * w * h; pixels != want {
		t.Errorf("workers credited with %d pixels, want %d", pixels, want)
	}
}

// TestReconciledStealKeepsItsRegion: a victim whose truncate ack was lost
// reports its stop in its task-done; by then a requeued block of another
// region is queued, and releasing the victim hands that block to it. The
// stolen frames must still be the victim's old block's.
func TestReconciledStealKeepsItsRegion(t *testing.T) {
	const w, h = 24, 8
	a, b, c := fb.NewRect(0, 0, 8, 8), fb.NewRect(8, 0, 16, 8), fb.NewRect(16, 0, 24, 8)
	task := func(id int, r fb.Rect, f0, f1 int) partition.Task {
		return partition.Task{ID: id, Region: r, StartFrame: f0, EndFrame: f1}
	}
	_, ln := scriptRun(t, Config{
		Scene: farmScene(6), W: w, H: h,
		Scheme: partition.FrameDivision{BlockW: 8, BlockH: 8, Adaptive: true},
	}, []string{"w0", "w1", "w2"},
		one(helloFrom("w0")), one(helloFrom("w1")), one(helloFrom("w2")), // blocks a, b, c
		resultsFrom("w1", task(1, b, 0, 6), 0, 6),
		one(pairFrom("w1", TagTaskDone, 1, 6)), // w1 steals a's [3,6) from w0 and parks
		resultsFrom("w2", task(2, c, 0, 6), 0, 1),
		resultsFrom("w2", task(2, c, 0, 6), 2, 3),
		one(msg.Message{Tag: msg.TagDown, From: "w2"}), // c's [1,2) to w1, [3,6) queued
		resultsFrom("w0", task(0, a, 0, 6), 0, 3),
		one(pairFrom("w0", TagTaskDone, 0, 3)), // the ack was lost: w0 takes c's [3,6)
		resultsFrom("w1", task(3, c, 1, 2), 1, 2),
		one(pairFrom("w1", TagTaskDone, 3, 2)),
		resultsFrom("w0", task(4, c, 3, 6), 3, 6),
		resultsFrom("w1", task(5, a, 3, 6), 3, 6),
	)
	got := ln.tasksTo(t, "w1")
	if want := task(5, a, 3, 6); len(got) != 3 || got[2] != want {
		t.Errorf("w1 was sent tasks %+v, want the stolen %+v last", got, want)
	}
}

// TestTickRetiresUnjoinedWorker: a worker whose hello never arrives
// counts as silent since t=0; the first tick past the liveness deadline
// retires it, and it is never pinged or given work.
func TestTickRetiresUnjoinedWorker(t *testing.T) {
	const w, h = 8, 8
	full := fb.NewRect(0, 0, w, h)
	cfg := Config{
		Scene: farmScene(2), W: w, H: h, Scheme: partition.SequenceDivision{Adaptive: false},
		Heartbeat: 10 * time.Millisecond, Liveness: 300 * time.Millisecond,
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	tick := msg.Message{Tag: tagTick}
	ln := &scriptLink{names: []string{"w0", "mute"}, script: []scripted{
		{0, helloFrom("w0")},
		{100 * ms, tick}, // pings w0; mute has been silent 100 ms
		{150 * ms, msg.Message{Tag: TagPong, From: "w0", Data: encodePong(1, 0, 0)}},
		{350 * ms, tick}, // mute silent past liveness: retired
		{360 * ms, resultsFrom("w0", partition.Task{ID: 0, Region: full}, 0, 1)[0]},
		{370 * ms, pairFrom("w0", TagTaskDone, 0, 1)},
		{380 * ms, resultsFrom("w0", partition.Task{ID: 1, Region: full}, 1, 2)[0]},
	}}
	res, err := runChecked(t, cfg, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WorkersLost != 1 || res.Faults.HeartbeatTimeouts != 1 || res.Faults.PingsSent != 2 {
		t.Errorf("faults %s, want the mute worker lost to one heartbeat timeout and w0 pinged twice", res.Faults.String())
	}
	if len(ln.detached) != 1 || ln.detached[0] != "mute" {
		t.Errorf("detached %v, want [mute]", ln.detached)
	}
	for _, s := range ln.sent {
		if s.m.From == "mute" && s.m.Tag != TagShutdown {
			t.Errorf("mute worker was sent tag %d at %v", s.m.Tag, s.at)
		}
	}
}

// TestMuteWorkerDoesNotHangHeartbeatlessRun: with heartbeats off nothing
// ever gives up on a worker whose hello never arrives, so the run must not
// wait for it: it ends when the frames are in, and the mute worker is
// shut down with the rest.
func TestMuteWorkerDoesNotHangHeartbeatlessRun(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed:    1,
		Rules:   []faulty.Rule{{Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop}},
		Protect: []string{"worker00"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2, Ctx: ctx,
		Scheme:   partition.SequenceDivision{Adaptive: true},
		WrapConn: plan.Wrap,
	}, checked(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "mute-heartbeatless", res.Frames, want)
	if res.Faults.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d: nothing should retire a worker with heartbeats off", res.Faults.WorkersLost)
	}
}
