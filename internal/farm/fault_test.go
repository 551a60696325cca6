package farm

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nowrender/internal/faulty"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
)

// crash is a plan under which every worker but the protected ones drops
// its connection without warning as it sends its nth message of the tag
// — a workstation going down.
func crash(tag, nth int, protect ...string) *faulty.Plan {
	return &faulty.Plan{Rules: []faulty.Rule{{Tag: tag, Dir: faulty.SendOnly, After: nth, Action: faulty.Sever}}, Protect: protect}
}

// TestMasterSurvivesWorkerCrash: one of three workers delivers a frame
// and drops its connection; the other two finish its frames.
func TestMasterSurvivesWorkerCrash(t *testing.T) {
	for _, d := range bothWays {
		t.Run(d.name, func(t *testing.T) {
			plan := crash(TagFrameDone, 2, "worker00", "worker01")
			res := d.chaos(t, Config{
				Scene: farmScene(8), W: fw, H: fh, Scheme: partition.SequenceDivision{Adaptive: true}, Faults: plan,
			}, 3)
			if d.virtual { // on the wall clock the others may finish first
				pin(t, res, plan, faulty.Stats{Severed: 1}, stats.FaultCounters{WorkersLost: 1, FramesRequeued: 2})
			}
		})
	}
}

// TestMasterFailsWhenAllWorkersDie: a run whose only worker drops its
// connection after one frame fails instead of waiting for ever.
func TestMasterFailsWhenAllWorkersDie(t *testing.T) {
	cfg := Config{Scene: farmScene(4), W: fw, H: fh, Workers: 1, Machines: workstations(1)}
	for _, render := range []func(Config) (*Result, error){RenderLocal, RenderVirtual} {
		cfg.Faults = crash(TagFrameDone, 2)
		if _, err := render(cfg); err == nil {
			t.Error("master succeeded with every worker dead")
		}
	}
}

// TestMasterSurvivesCrashBeforeHello: a worker whose connection drops
// before its hello holds nothing up.
func TestMasterSurvivesCrashBeforeHello(t *testing.T) {
	for _, d := range bothWays {
		t.Run(d.name, func(t *testing.T) {
			d.chaos(t, Config{
				Scene: farmScene(4), W: fw, H: fh, Coherence: true, Faults: crash(TagHello, 1, "worker01"),
			}, 2)
		})
	}
}

// TestMasterRejectsProtocolViolations: a worker that sends an unknown
// tag after its hello is retired; with no worker left the run fails.
func TestMasterRejectsProtocolViolations(t *testing.T) {
	cfg := Config{Scene: farmScene(4), W: fw, H: fh}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	ln := &scriptLink{names: []string{"rogue"}, script: at(0, helloFrom("rogue"), msg.Message{Tag: 9999, From: "rogue"})}
	if res, err := runMaster(cfg, ln, nil); err == nil || res.Faults.MalformedMessages != 1 {
		t.Fatalf("master accepted an unknown message tag (%v)", err)
	}
}

// TestMasterRejectsCorruptFrameDone: a frame result that fails its CRC
// retires its sender; with no worker left the run fails.
func TestMasterRejectsCorruptFrameDone(t *testing.T) {
	cfg := Config{Scene: farmScene(4), W: fw, H: fh, Workers: 1, Machines: workstations(1)}
	for _, render := range []func(Config) (*Result, error){RenderLocal, RenderVirtual} {
		cfg.Faults = &faulty.Plan{Rules: []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Corrupt}}}
		if res, err := render(cfg); err == nil || res.Faults.MalformedMessages != 1 {
			t.Errorf("master accepted a corrupt frame-done payload (%v)", err)
		}
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
