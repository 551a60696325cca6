package farm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/wire"
)

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
			var tm taskMsg
			if err := msg.Decode(s.m.Data, &tm); err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, tm.Task)
		}
	}
	return tasks
}

// transcript is what the master sent, a line per message: the
// addressee, then a task's id and frames, a truncate's task and stop
// frame, or the tag.
func (l *scriptLink) transcript() []string {
	var out []string
	for _, s := range l.sent {
		line := fmt.Sprintf("%s tag %d", s.m.From, s.m.Tag)
		switch s.m.Tag {
		case TagTask:
			var tm taskMsg
			_ = msg.Decode(s.m.Data, &tm)
			line = fmt.Sprintf("%s task %d [%d,%d)", s.m.From, tm.Task.ID, tm.Task.StartFrame, tm.Task.EndFrame)
		case TagTruncate:
			var e taskEnd
			_ = msg.Decode(s.m.Data, &e)
			line = fmt.Sprintf("%s truncate %d at %d", s.m.From, e.Task, e.End)
		case TagShutdown:
			line = s.m.From + " shutdown"
		}
		out = append(out, line)
	}
	return out
}

// Script entries: what worker from says.
func helloFrom(from string) msg.Message {
	return msg.Message{Tag: TagHello, From: from, Data: msg.Encode(&hello{ProtocolVersion, from})}
}

func pairFrom(from string, tag, a, b int) msg.Message {
	return msg.Message{Tag: tag, From: from, Data: msg.Encode(&taskEnd{a, b})}
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
		ms = append(ms, msg.Message{Tag: TagFrameDone, From: from, Data: wire.EncodeFrameDone(fd)})
	}
	return ms
}

// scriptRun runs the master over a script of untimed messages.
func scriptRun(t *testing.T, cfg Config, names []string, script ...[]msg.Message) (*Result, *scriptLink) {
	t.Helper()
	var timed []scripted
	for _, ms := range script {
		timed = append(timed, at(0, ms...)...)
	}
	return runScript(t, cfg, names, timed...)
}

// runScript runs the master over a script.
func runScript(t *testing.T, cfg Config, names []string, script ...scripted) (*Result, *scriptLink) {
	t.Helper()
	ln := &scriptLink{names: names, script: script}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	res, err := runMaster(cfg, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, ln
}

// at is a script's entries for messages that arrive at time d.
func at(d time.Duration, ms ...msg.Message) []scripted {
	s := make([]scripted, len(ms))
	for i, m := range ms {
		s[i] = scripted{d, m}
	}
	return s
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
		Scene: farmScene(12), W: w, H: h, Scheme: partition.Scheme{Sequence: true, Adaptive: true},
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
		Scheme: partition.Scheme{Sequence: true},
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
		Scheme: partition.Scheme{BlockW: 8, BlockH: 8, Adaptive: true},
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

// TestLateAckForOldTaskLeavesNewTruncateParked: a victim's truncate ack
// for its old task comes late, after its task-done has reconciled the
// steal. By then the victim holds a new task and a second thief is parked
// on a truncate of that one. The late ack names the old task, so it must
// not reconcile the new truncate: the thief stays parked until the new
// task's own ack hands it the stolen frames.
func TestLateAckForOldTaskLeavesNewTruncateParked(t *testing.T) {
	const w, h = 8, 8
	full := fb.NewRect(0, 0, w, h)
	task := func(id, f0, f1 int) partition.Task {
		return partition.Task{ID: id, Region: full, StartFrame: f0, EndFrame: f1}
	}
	_, ln := scriptRun(t, Config{
		Scene: farmScene(32), W: w, H: h, Scheme: partition.Scheme{Sequence: true, Adaptive: true},
	}, []string{"w0", "w1", "w2", "w3"},
		one(helloFrom("w0")), one(helloFrom("w1")), one(helloFrom("w2")), one(helloFrom("w3")),
		resultsFrom("w3", task(3, 24, 32), 24, 31), // w3 has too little left to steal from
		resultsFrom("w0", task(0, 0, 8), 0, 8),
		one(pairFrom("w0", TagTaskDone, 0, 8)), // w0 steals [12,16) of w1's task and parks
		resultsFrom("w1", task(1, 8, 16), 8, 12),
		one(pairFrom("w1", TagTaskDone, 1, 12)), // its ack is late: w0 takes [12,16), w1 steals from w2
		resultsFrom("w0", task(4, 12, 16), 12, 16),
		one(pairFrom("w0", TagTaskDone, 4, 16)),        // nothing left to steal: w0 idles
		one(msg.Message{Tag: msg.TagDown, From: "w2"}), // w1 takes w2's requeued [16,24)
		resultsFrom("w3", task(3, 24, 32), 31, 32),
		one(pairFrom("w3", TagTaskDone, 3, 32)),    // w3 steals [20,24) of w1's new task and parks
		one(pairFrom("w1", TagTruncateAck, 1, 12)), // the late ack, for the old task
		resultsFrom("w1", task(5, 16, 24), 16, 17),
		one(pairFrom("w1", TagTruncateAck, 5, 20)), // the new task's ack: w3 takes [20,24)
		resultsFrom("w3", task(6, 20, 24), 20, 24),
		resultsFrom("w1", task(5, 16, 24), 17, 20),
	)
	want := []string{
		"w0 task 0 [0,8)", "w1 task 1 [8,16)", "w2 task 2 [16,24)", "w3 task 3 [24,32)", "w1 truncate 1 at 12",
		"w2 truncate 2 at 20", "w0 task 4 [12,16)", "w1 task 5 [16,24)", "w1 truncate 5 at 20", "w3 task 6 [20,24)",
		"w0 shutdown", "w1 shutdown", "w2 shutdown", "w3 shutdown",
	}
	if got := ln.transcript(); !slices.Equal(got, want) {
		t.Errorf("master sent\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestTruncateAckRefreshesStallDeadline: a truncate ack is progress. A
// victim handed its task at 0 ms acks a truncate at 90 ms, so under a
// 100 ms stall deadline the tick at 150 ms must not retire it, and the
// tick at 200 ms must — handing its unfinished frames to the idle thief.
func TestTruncateAckRefreshesStallDeadline(t *testing.T) {
	full := fb.NewRect(0, 0, 8, 8)
	task := func(id int) partition.Task { return partition.Task{ID: id, Region: full} }
	ms, tick := time.Millisecond, msg.Message{Tag: tagTick}
	res, ln := runScript(t, Config{
		Scene: farmScene(8), W: 8, H: 8, Scheme: partition.Scheme{Sequence: true, Adaptive: true},
		StallTimeout: 100 * time.Millisecond,
	}, []string{"w0", "w1"}, slices.Concat(
		at(0, helloFrom("w0"), helloFrom("w1")), // [0,4) and [4,8)
		at(10*ms, resultsFrom("w0", task(0), 0, 4)...),
		at(30*ms, pairFrom("w0", TagTaskDone, 0, 4)),    // w0 steals [6,8) of w1's task
		at(90*ms, pairFrom("w1", TagTruncateAck, 1, 6)), // and takes it
		at(100*ms, resultsFrom("w0", task(2), 6, 8)...),
		at(110*ms, pairFrom("w0", TagTaskDone, 2, 8)), // w1's [5,6) is too short to steal
		at(150*ms, tick), // w1 last progressed at 90 ms
		at(200*ms, tick), // now past the deadline: w0 takes [4,6)
		at(210*ms, resultsFrom("w0", task(3), 4, 6)...),
	)...)
	if want := (stats.FaultCounters{WorkersLost: 1, StallTimeouts: 1, FramesRequeued: 2}); res.Faults != want {
		t.Errorf("faults %s, want %s", res.Faults.String(), want.String())
	}
	if last := ln.sent[len(ln.sent)-3]; last.at != 200*ms || last.m.From != "w0" || last.m.Tag != TagTask {
		t.Errorf("the last task went to %s at %v, want to w0 at 200ms", last.m.From, last.at)
	}
}

// TestStallDeadlineSparesIdleWorker: the stall deadline measures a task
// holder's progress, so a worker that finished its task and sits idle
// past the deadline — heartbeats off, nothing to steal — is not retired.
func TestStallDeadlineSparesIdleWorker(t *testing.T) {
	full := fb.NewRect(0, 0, 8, 8)
	task := func(id int) partition.Task { return partition.Task{ID: id, Region: full} }
	ms, tick := time.Millisecond, msg.Message{Tag: tagTick}
	res, ln := runScript(t, Config{
		Scene: farmScene(4), W: 8, H: 8, Scheme: partition.Scheme{Sequence: true},
		StallTimeout: 100 * time.Millisecond,
	}, []string{"w0", "w1"}, slices.Concat(
		at(0, helloFrom("w0"), helloFrom("w1")), // [0,2) and [2,4)
		at(10*ms, resultsFrom("w0", task(0), 0, 2)...),
		at(20*ms, pairFrom("w0", TagTaskDone, 0, 2)), // w0 idle from here on
		at(90*ms, resultsFrom("w1", task(1), 2, 3)...),
		at(150*ms, tick), // w0 idle for 130 ms, w1 progressed 60 ms ago
		at(180*ms, resultsFrom("w1", task(1), 3, 4)...),
	)...)
	if res.Faults.StallTimeouts != 0 || res.Faults.WorkersLost != 0 {
		t.Errorf("faults %s, want no stall timeout and no worker lost", res.Faults.String())
	}
	if len(ln.detached) != 0 {
		t.Errorf("detached %v, want none", ln.detached)
	}
}

// TestTickRetiresUnjoinedWorker: a worker whose hello never arrives
// counts as silent since t=0; the first tick past the liveness deadline
// retires it, and it is never pinged or given work.
func TestTickRetiresUnjoinedWorker(t *testing.T) {
	const w, h = 8, 8
	full := fb.NewRect(0, 0, w, h)
	ms := time.Millisecond
	tick := msg.Message{Tag: tagTick}
	res, ln := runScript(t, Config{
		Scene: farmScene(2), W: w, H: h, Scheme: partition.Scheme{Sequence: true},
		Heartbeat: 10 * time.Millisecond, Liveness: 300 * time.Millisecond,
	}, []string{"w0", "mute"},
		scripted{0, helloFrom("w0")},
		scripted{100 * ms, tick}, // pings w0; mute has been silent 100 ms
		scripted{150 * ms, msg.Message{Tag: TagPong, From: "w0", Data: msg.Encode(&pong{ping{1, 0}, 0})}},
		scripted{350 * ms, tick}, // mute silent past liveness: retired
		scripted{360 * ms, resultsFrom("w0", partition.Task{ID: 0, Region: full}, 0, 1)[0]},
		scripted{370 * ms, pairFrom("w0", TagTaskDone, 0, 1)},
		scripted{380 * ms, resultsFrom("w0", partition.Task{ID: 1, Region: full}, 1, 2)[0]},
	)
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
	for _, d := range bothWays {
		t.Run(d.name, func(t *testing.T) {
			plan := &faulty.Plan{
				Seed:    1,
				Rules:   []faulty.Rule{{Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop}},
				Protect: []string{"worker00"},
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			res := d.chaos(t, Config{
				Scene: farmScene(4), W: fw, H: fh, Ctx: ctx,
				Scheme: partition.Scheme{Sequence: true, Adaptive: true}, Faults: plan,
			}, 2)
			if res.Faults != (stats.FaultCounters{}) {
				t.Errorf("faults %s: nothing should retire a worker with heartbeats off", res.Faults.String())
			}
		})
	}
}
