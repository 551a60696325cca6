package farm

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	"nowrender/internal/wire"
)

// crashingWorker behaves like a normal worker for its first frame, then
// drops its connection without warning — a workstation going down
// mid-render.
func crashingWorker(name string, conn msg.Conn, sc *scene.Scene) {
	defer conn.Close()
	if err := conn.Send(msg.Message{Tag: TagHello, From: name, Data: encodeHello(name)}); err != nil {
		return
	}
	m, err := conn.Recv()
	if err != nil || m.Tag != TagTask {
		return
	}
	tm, err := decodeTask(m.Data)
	if err != nil {
		return
	}
	ft, err := trace.New(sc, tm.Task.StartFrame, trace.Options{})
	if err != nil {
		return
	}
	buf := fb.New(tm.W, tm.H)
	ft.RenderRegion(buf, tm.Task.Region)
	fd := frameDoneMsg{
		TaskID: tm.Task.ID, Frame: tm.Task.StartFrame, Region: tm.Task.Region,
		Pix: wire.ExtractRegion(buf, tm.Task.Region), Rendered: tm.Task.Region.Area(),
	}
	_ = conn.Send(msg.Message{Tag: TagFrameDone, From: name, Data: encodeFrameDone(fd)})
	// ...and vanish.
}

func TestMasterSurvivesWorkerCrash(t *testing.T) {
	sc := farmScene(8)
	want := referenceFrames(t, sc)

	hub := msg.NewHub()
	// Two healthy workers plus one that crashes after a single frame.
	healthyDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		masterEnd, workerEnd := msg.Pipe(64)
		name := []string{"healthy0", "healthy1"}[i]
		if err := hub.Attach(name, masterEnd); err != nil {
			t.Fatal(err)
		}
		go func(n string, c msg.Conn) {
			healthyDone <- RunWorkerWithOptions(context.Background(), n, c, sc, WorkerOptions{})
		}(name, workerEnd)
	}
	masterEnd, workerEnd := msg.Pipe(64)
	if err := hub.Attach("doomed", masterEnd); err != nil {
		t.Fatal(err)
	}
	go crashingWorker("doomed", workerEnd, sc)

	res, err := RunMaster(Config{
		Scene: sc, W: fw, H: fh, Coherence: false,
		Scheme: partition.SequenceDivision{Adaptive: true},
	}, hub)
	hub.Close()
	if err != nil {
		t.Fatalf("master did not survive the crash: %v", err)
	}
	assertFramesEqual(t, "crash-recovery", res.Frames, want)
	for i := 0; i < 2; i++ {
		select {
		case werr := <-healthyDone:
			if werr != nil {
				t.Errorf("healthy worker failed: %v", werr)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("healthy worker did not exit")
		}
	}
}

func TestMasterFailsWhenAllWorkersDie(t *testing.T) {
	sc := farmScene(4)
	hub := msg.NewHub()
	masterEnd, workerEnd := msg.Pipe(64)
	if err := hub.Attach("only", masterEnd); err != nil {
		t.Fatal(err)
	}
	go crashingWorker("only", workerEnd, sc)
	_, err := RunMaster(Config{
		Scene: sc, W: fw, H: fh,
		Scheme: partition.SequenceDivision{Adaptive: true},
	}, hub)
	hub.Close()
	if err == nil {
		t.Fatal("master succeeded with every worker dead")
	}
}

func TestMasterSurvivesCrashBeforeHello(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	hub := msg.NewHub()

	// One worker dies before saying hello.
	deadEnd, deadWorkerEnd := msg.Pipe(4)
	if err := hub.Attach("stillborn", deadEnd); err != nil {
		t.Fatal(err)
	}
	deadWorkerEnd.Close()

	masterEnd, workerEnd := msg.Pipe(64)
	if err := hub.Attach("survivor", masterEnd); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- RunWorkerWithOptions(context.Background(), "survivor", workerEnd, sc, WorkerOptions{}) }()

	res, err := RunMaster(Config{Scene: sc, W: fw, H: fh, Coherence: true}, hub)
	hub.Close()
	if err != nil {
		t.Fatalf("master failed: %v", err)
	}
	assertFramesEqual(t, "stillborn", res.Frames, want)
	if werr := <-done; werr != nil {
		t.Errorf("survivor failed: %v", werr)
	}
}

// rogueWorker sends a malformed message stream to the master.
func TestMasterRejectsProtocolViolations(t *testing.T) {
	sc := farmScene(4)
	hub := msg.NewHub()
	masterEnd, workerEnd := msg.Pipe(8)
	if err := hub.Attach("rogue", masterEnd); err != nil {
		t.Fatal(err)
	}
	go func() {
		workerEnd.Send(msg.Message{Tag: TagHello, Data: encodeHello("rogue")})
		// Garbage tag after hello.
		workerEnd.Send(msg.Message{Tag: 9999})
	}()
	_, err := RunMaster(Config{Scene: sc, W: fw, H: fh}, hub)
	hub.Close()
	if err == nil {
		t.Fatal("master accepted an unknown message tag")
	}
}

func TestMasterRejectsCorruptFrameDone(t *testing.T) {
	sc := farmScene(4)
	hub := msg.NewHub()
	masterEnd, workerEnd := msg.Pipe(8)
	if err := hub.Attach("corrupt", masterEnd); err != nil {
		t.Fatal(err)
	}
	go func() {
		workerEnd.Send(msg.Message{Tag: TagHello, Data: encodeHello("corrupt")})
		if _, err := workerEnd.Recv(); err != nil { // task
			return
		}
		workerEnd.Send(msg.Message{Tag: TagFrameDone, Data: []byte{1, 2, 3}})
	}()
	_, err := RunMaster(Config{Scene: sc, W: fw, H: fh}, hub)
	hub.Close()
	if err == nil {
		t.Fatal("master accepted a corrupt frame-done payload")
	}
}

func TestMasterRequiresWorkers(t *testing.T) {
	sc := farmScene(2)
	hub := msg.NewHub()
	defer hub.Close()
	if _, err := RunMaster(Config{Scene: sc, W: fw, H: fh}, hub); err == nil {
		t.Fatal("master ran with zero workers")
	}
}

// strayWorker attaches a scripted worker to hub: it sends the given
// messages and returns once the hub has queued them all for the master,
// ahead of anything a worker started later says — otherwise two good
// workers can render every frame before the master reads the stray at
// all. It then reads until the master drops it; the returned channel
// yields how many tasks it was sent.
func strayWorker(t *testing.T, hub *msg.Hub, name string, script ...msg.Message) <-chan int {
	t.Helper()
	masterEnd, workerEnd := msg.Pipe(8)
	queued := &queuedEnd{Conn: masterEnd, after: len(script), done: make(chan struct{})}
	if err := hub.Attach(name, queued); err != nil {
		t.Fatal(err)
	}
	for _, m := range script {
		if err := workerEnd.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	<-queued.done
	tasks := make(chan int, 1)
	go func() {
		n := 0
		for {
			m, err := workerEnd.Recv()
			if err != nil {
				tasks <- n
				return
			}
			if m.Tag == TagTask {
				n++
			}
		}
	}()
	return tasks
}

// queuedEnd is the hub's end of a stray worker's pipe. The hub's pump
// queues each message it receives before it receives again, so once the
// pump asks for message after+1, the first after messages are queued:
// done closes then.
type queuedEnd struct {
	msg.Conn
	after, calls int // touched by the pump's goroutine alone
	done         chan struct{}
}

func (c *queuedEnd) Recv() (msg.Message, error) {
	if c.calls++; c.calls == c.after+1 {
		close(c.done)
	}
	return c.Conn.Recv()
}

// TestMasterRefusesStrayWorker: a worker that is not this build — an
// older hello, a newer version, no hello at all — or that says hello
// twice is refused, the second hello after it was sent a task: it is
// detached and counted lost, a foreign build is never sent a task, and
// the other two workers deliver the golden frames.
func TestMasterRefusesStrayWorker(t *testing.T) {
	want := readGolden(t)
	hello := func(data []byte) msg.Message { return msg.Message{Tag: TagHello, Data: data} }
	cases := []struct {
		name     string
		script   []msg.Message
		maxTasks int
	}{
		{"v1 hello with capability bits", []msg.Message{hello(v1Hello("stray", 0x3f))}, 0},
		{"raw unsealed name", []msg.Message{hello([]byte("stray"))}, 0},
		{"version 2", []msg.Message{hello(versionHello("stray", 2))}, 0},
		{"result before hello", []msg.Message{{Tag: TagTaskDone, Data: encodePair(0, 1)}}, 0},
		{"unknown tag before hello", []msg.Message{{Tag: 9999}}, 0},
		{"second hello", []msg.Message{hello(encodeHello("stray")), hello(encodeHello("stray"))}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := farmScene(goldenFrames)
			hub := msg.NewHub()
			tasks := strayWorker(t, hub, "stray", tc.script...)
			done := make(chan error, 2)
			for _, name := range []string{"worker00", "worker01"} {
				masterEnd, workerEnd := msg.Pipe(64)
				if err := hub.Attach(name, masterEnd); err != nil {
					t.Fatal(err)
				}
				go func(name string) {
					done <- RunWorkerWithOptions(context.Background(), name, workerEnd, sc, WorkerOptions{})
				}(name)
			}
			res, err := RunMaster(Config{
				Scene: sc, W: fw, H: fh, Coherence: true,
				Scheme: partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true},
			}, hub)
			hub.Close()
			if err != nil {
				t.Fatalf("master failed: %v", err)
			}
			for i, hsh := range hashFrames(res.Frames) {
				if hsh != want[i] {
					t.Errorf("frame %d hash mismatch", i)
				}
			}
			if res.Faults.WorkersLost != 1 || res.Faults.MalformedMessages != 1 {
				t.Errorf("faults %s, want exactly the stray worker lost to one malformed message", res.Faults.String())
			}
			if n := <-tasks; n > tc.maxTasks {
				t.Errorf("stray worker was sent %d tasks, want at most %d", n, tc.maxTasks)
			}
			for i := 0; i < 2; i++ {
				if werr := <-done; werr != nil {
					t.Errorf("worker failed: %v", werr)
				}
			}
		})
	}
}

// TestMasterFailsWhenEveryWorkerIsRefused: with nobody left the run
// fails, and the error says why — naming both protocol versions.
func TestMasterFailsWhenEveryWorkerIsRefused(t *testing.T) {
	sc := farmScene(2)
	hub := msg.NewHub()
	strayWorker(t, hub, "old", msg.Message{Tag: TagHello, Data: v1Hello("old", 0x3f)})
	strayWorker(t, hub, "new", msg.Message{Tag: TagHello, Data: versionHello("new", ProtocolVersion+1)})
	_, err := RunMaster(Config{Scene: sc, W: fw, H: fh}, hub)
	hub.Close()
	if err == nil {
		t.Fatal("master ran with every worker refused")
	}
	for _, want := range []string{"old: ", "new: ", fmt.Sprintf("version %d", ProtocolVersion+1), fmt.Sprintf("version %d", ProtocolVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
