package farm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
	"nowrender/internal/wire"
)

// TestWorkerHostsAgree runs one scripted exchange through both hosts of
// the worker state machine — the conn loop over a msg.Pipe and a machine
// of the virtual NOW — and asserts they answer alike: a task, after its
// first frame a truncate that leaves it running, a truncate for an older
// task delivered twice while this one runs, a ping, and the shutdown. Both
// acknowledge every truncate, the stale ones as they came, and answer
// the ping.
func TestWorkerHostsAgree(t *testing.T) {
	sc := farmScene(3)
	task := partition.Task{ID: 7, Region: fb.NewRect(0, 0, fw, fh), StartFrame: 0, EndFrame: 3}
	script := []msg.Message{
		{Tag: TagTask, Data: msg.Encode(&taskMsg{Task: task, W: fw, H: fh, Coherence: true, Samples: 1, Threads: 1})},
		{Tag: TagTruncate, Data: msg.Encode(&taskEnd{7, 2})},
		{Tag: TagTruncate, Data: msg.Encode(&taskEnd{6, 4})},
		{Tag: TagTruncate, Data: msg.Encode(&taskEnd{6, 4})},
		{Tag: TagPing, Data: msg.Encode(&ping{1, 500})},
		{Tag: TagShutdown},
	}

	masterEnd, workerEnd := msg.Pipe(64)
	defer masterEnd.Close()
	conn := newLockstepConn(workerEnd, len(script))
	for _, m := range script {
		if err := masterEnd.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- runWorkerLoop(context.Background(), "ws", conn, sc, WorkerOptions{}, new(rangeHolder)) }()
	var werr error
	select {
	case werr = <-done:
	case <-time.After(10 * time.Second):
		t.Error("conn loop still running 10 s after TagShutdown")
		workerEnd.Close()
		werr = <-done
	}
	if werr != nil && !errors.Is(werr, msg.ErrClosed) {
		t.Fatalf("conn loop: %v", werr)
	}
	workerEnd.Close()

	cfg := Config{Scene: sc, W: fw, H: fh, Machines: []cluster.Machine{{Name: "ws", Speed: 1}}}
	l, err := newVirtualLink(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range script {
		if err := l.Send("ws", m); err != nil {
			t.Fatalf("virtual machine, message %d: %v", i, err)
		}
		if i == 0 {
			if err := l.machines[0].w.frame(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var virtual []msg.Message
	for _, v := range l.inflight {
		virtual = append(virtual, v.m)
	}

	got, want := outbox(t, conn.out), outbox(t, virtual)
	wantTags := []int{TagHello, TagFrameDone, TagTruncateAck, TagTruncateAck, TagTruncateAck, TagPong}
	if tags := outboxTags(want); !reflect.DeepEqual(tags, wantTags) {
		t.Fatalf("virtual machine sent %v, want %v", tags, wantTags)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conn loop sent %v, virtual machine %v", outboxTags(got), outboxTags(want))
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("message %d: conn %+v, virtual %+v", i, got[i].Body, want[i].Body)
			}
		}
	}
}

// TestTruncateOfAnotherTaskLeavesRunningTask: a truncate that names a
// task other than the running one — a duplicate, or one for a task that
// already ended — is acknowledged as it came and stops nothing: the
// running task keeps its end and renders every frame to it. The host is
// a virtual machine, whose sends wait in flight.
func TestTruncateOfAnotherTaskLeavesRunningTask(t *testing.T) {
	cfg := Config{Scene: farmScene(3), W: fw, H: fh, Machines: []cluster.Machine{{Name: "ws", Speed: 1}}}
	l, err := newVirtualLink(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := partition.Task{ID: 5, Region: fb.NewRect(0, 0, fw, fh), StartFrame: 0, EndFrame: 3}
	for _, m := range []msg.Message{
		{Tag: TagTask, Data: msg.Encode(&taskMsg{Task: task, W: fw, H: fh, Samples: 1, Threads: 1})},
		{Tag: TagTruncate, Data: msg.Encode(&taskEnd{4, 1})},
	} {
		if err := l.Send("ws", m); err != nil {
			t.Fatal(err)
		}
	}
	for w := &l.machines[0].w; w.busy(); {
		if err := w.frame(); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, v := range l.inflight[1:] { // after the hello
		s := outbox(t, []msg.Message{v.m})[0]
		if fd, ok := s.Body.(frameDoneMsg); ok {
			s.Body = fmt.Sprintf("task %d frame %d", fd.TaskID, fd.Frame)
		}
		got = append(got, fmt.Sprint(s.Tag, s.Body))
	}
	want := []string{fmt.Sprint(TagTruncateAck, [2]int{4, 1}), fmt.Sprint(TagFrameDone, "task 5 frame 0"),
		fmt.Sprint(TagFrameDone, "task 5 frame 1"), fmt.Sprint(TagFrameDone, "task 5 frame 2"), fmt.Sprint(TagTaskDone, [2]int{5, 3})}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("worker sent %q, want %q", got, want)
	}
}

// lockstepConn is the worker's end of the pipe, run in lockstep with its
// receive pump so that the script meets the worker where it meets a
// virtual machine: the pump takes nothing past the task until the first
// frame result is sent, and that send returns only once the pump has
// taken the rest of the script (it is calling Recv again after the last
// message), so all of it waits in the worker's inbox at the frame
// boundary.
type lockstepConn struct {
	msg.Conn
	shipped chan struct{} // closed by the first frame result
	calls   chan struct{} // one per Recv after the task's
	n       int           // Recv calls so far, on the pump's goroutine
	rest    int           // messages after the task
	held    bool
	out     []msg.Message
}

func newLockstepConn(c msg.Conn, script int) *lockstepConn {
	return &lockstepConn{Conn: c, shipped: make(chan struct{}), calls: make(chan struct{}, script+1), rest: script - 1}
}

func (c *lockstepConn) Recv() (msg.Message, error) {
	c.n++
	if c.n > 1 {
		if c.n == 2 {
			<-c.shipped
		}
		c.calls <- struct{}{}
	}
	return c.Conn.Recv()
}

func (c *lockstepConn) Send(m msg.Message) error {
	c.out = append(c.out, m)
	if m.Tag == TagFrameDone && !c.held {
		c.held = true
		close(c.shipped)
		for range c.rest + 1 {
			<-c.calls
		}
	}
	return c.Conn.Send(m)
}

// sent is one decoded message a worker sent, without its wall- or
// virtual-clock fields.
type sent struct {
	Tag  int
	From string
	Body any
}

func outbox(t *testing.T, ms []msg.Message) []sent {
	t.Helper()
	out := make([]sent, len(ms))
	for i, m := range ms {
		var body any
		var err error
		switch m.Tag {
		case TagHello:
			var h hello
			err = msg.Decode(m.Data, &h)
			body = h.Name
		case TagFrameDone:
			var fd frameDoneMsg
			fd, err = wire.DecodeFrameDone(m.Data)
			fd.ElapsedNs, fd.TLNow, fd.TLTracks, fd.TLEvents = 0, 0, nil, nil
			body = fd
		case TagPong:
			var p pong
			err = msg.Decode(m.Data, &p)
			body = p.ping
		default:
			var e taskEnd
			err = msg.Decode(m.Data, &e)
			body = [2]int{e.Task, e.End}
		}
		if err != nil {
			t.Fatalf("message %d (tag %d): %v", i, m.Tag, err)
		}
		out[i] = sent{Tag: m.Tag, From: m.From, Body: body}
	}
	return out
}

func outboxTags(s []sent) []int {
	tags := make([]int, len(s))
	for i, m := range s {
		tags[i] = m.Tag
	}
	return tags
}

// TestBlockTaskHoldsItsBlock runs a 40x40 block of Newton 120x160,
// coherent and plain, through both hosts. The task's framebuffer holds
// the block, 3 bytes a block pixel, and a coherent task's is its engine's
// own; the working set the virtual NOW charges (Work.MemoryMB) counts it
// once. Both hosts ship the same frames.
func TestBlockTaskHoldsItsBlock(t *testing.T) {
	const w, h = 120, 160
	sc := scenes.Newton(3)
	region := fb.NewRect(40, 80, 80, 120)
	for _, coherent := range []bool{true, false} {
		tm := taskMsg{
			Task: partition.Task{ID: 1, Region: region, StartFrame: 0, EndFrame: 3},
			W:    w, H: h, Coherence: coherent, Samples: 1, Threads: 2, WireFlags: capWireDelta,
		}
		// holds renders the task on wk a frame at a time, checking what
		// its step holds after every frame.
		holds := func(host string, wk *worker) {
			t.Helper()
			if _, err := wk.handle(msg.Message{Tag: TagTask, Data: msg.Encode(&tm)}); err != nil {
				t.Fatal(err)
			}
			for wk.busy() {
				s := wk.step
				if err := wk.frame(); err != nil {
					t.Fatal(err)
				}
				if s.buf.Bounds() != region || len(s.buf.Pix) != 3*region.Area() {
					t.Fatalf("%s, coherent %v: the task holds %v in %d framebuffer bytes, want %v in %d",
						host, coherent, s.buf.Bounds(), len(s.buf.Pix), region, 3*region.Area())
				}
				want := s.geo.WorkingSet(nil) + 3*region.Area()
				if coherent {
					if s.buf != s.eng.Frame() {
						t.Fatalf("%s: a coherent task's framebuffer is not its engine's", host)
					}
					want = s.geo.WorkingSet(s.eng)
				}
				if got := s.workingSet(); got != want {
					t.Errorf("%s, coherent %v: the task charges %d B of working set, want %d", host, coherent, got, want)
				}
			}
		}

		masterEnd, workerEnd := msg.Pipe(64)
		ch := newConnHost("ws", workerEnd, WorkerOptions{})
		holds("conn host", &worker{name: "ws", sc: sc, host: ch, threads: 1, ranges: new(rangeHolder)})
		var conn []msg.Message
		for range 4 { // three results and the task's end
			m, err := masterEnd.Recv()
			if err != nil {
				t.Fatal(err)
			}
			conn = append(conn, m)
		}
		ch.close()
		masterEnd.Close()

		l, err := newVirtualLink(&Config{Scene: sc, W: w, H: h, Machines: []cluster.Machine{{Name: "ws", Speed: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		holds("virtual host", &l.machines[0].w)
		var virtual []msg.Message
		for _, v := range l.inflight {
			if v.m.Tag != TagHello { // the machine's, sent as the link starts
				virtual = append(virtual, v.m)
			}
		}
		if got, want := outbox(t, conn), outbox(t, virtual); !reflect.DeepEqual(got, want) {
			t.Errorf("coherent %v: the conn host sent %v, the virtual host %v", coherent, outboxTags(got), outboxTags(want))
		}
	}
}
