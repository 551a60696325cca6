package farm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/timeline"
)

// vmachine is one workstation of the virtual NOW: a protocol-speaking worker.
type vmachine struct {
	// track takes the machine's frame and send spans, stamped with its
	// own virtual clock (nil when recording is off).
	track *timeline.Track
	// step is the task being rendered, nil while idle; next is the frame
	// to render next, end the one to stop before (a truncate moves it).
	step      *frameStep
	next, end int
	// ranges is what the machine keeps between tasks, as a worker loop does.
	ranges rangeHolder
}

// vmsg is a message on its way to the master, off the bus at time at.
type vmsg struct {
	at   time.Duration
	from int
	m    msg.Message
}

// virtualLink is the master loop's link to the virtual NOW: a
// deterministic discrete-event simulation on the caller's goroutine. Each
// machine says hello at t=0, then per task sends one TagFrameDone per
// frame and a TagTaskDone, acknowledging a TagTruncate at its next frame
// boundary. Rendering is the real frame step; time is what the cost model
// charges for its work, the bus for the real encoded messages and the
// master for handling each message, one at a time. Nothing is lost, late
// or garbled, so Config.DFB, Heartbeat, Liveness, StallTimeout and
// WrapConn have nothing to act on.
type virtualLink struct {
	cfg      *Config
	now      *cluster.VirtualNOW
	machines []*vmachine
	byName   map[string]int
	inflight []vmsg
	// clock is the master's time: when it finished handling the last
	// message Recv returned.
	clock time.Duration
}

func newVirtualLink(cfg *Config) (*virtualLink, error) {
	now, err := cluster.NewVirtualNOW(cfg.Machines)
	if err != nil {
		return nil, err
	}
	l := &virtualLink{cfg: cfg, now: now, byName: make(map[string]int)}
	// The loop's own timeline calls now stamp the master's virtual time.
	cfg.Timeline.SetClock(func() int64 { return int64(l.clock) })
	for i, m := range cfg.Machines {
		if _, dup := l.byName[m.Name]; dup || m.Name == "" {
			return nil, fmt.Errorf("farm: machine %d needs a unique name, has %q", i, m.Name)
		}
		l.byName[m.Name] = i
		l.machines = append(l.machines, &vmachine{track: cfg.Timeline.Track(m.Name + "/main")})
		l.inflight = append(l.inflight, vmsg{from: i, m: msg.Message{Tag: TagHello, From: m.Name, Data: encodeHello(m.Name)}})
	}
	return l, nil
}

func (l *virtualLink) Names() []string {
	names := make([]string, len(l.machines))
	for i, m := range l.cfg.Machines {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func (l *virtualLink) Now() time.Duration { return l.clock }

// Detach has nothing to sever: virtual machines do not fail.
func (l *virtualLink) Detach(string) {}

// Recv is one conservative discrete-event step: hand over the earliest
// message in flight, handled from when both it and the master are free,
// unless a busy machine's clock is earlier than the handling's end — it
// could yet send something sooner, so it renders its next frame first.
// Ties go to the lower machine index. Every busy clock is therefore at or
// past the master's, and so is everything sent later: time never runs back.
func (l *virtualLink) Recv() (msg.Message, error) {
	for {
		if err := l.cfg.cancelled(); err != nil {
			return msg.Message{}, err
		}
		first := -1
		for i, v := range l.inflight {
			if first < 0 || v.at < l.inflight[first].at || (v.at == l.inflight[first].at && v.from < l.inflight[first].from) {
				first = i
			}
		}
		busy := -1
		for i, m := range l.machines {
			if m.step != nil && (busy < 0 || l.now.Time(i) < l.now.Time(busy)) {
				busy = i
			}
		}
		var handled time.Duration // when the master will be done with first
		if first >= 0 {
			handled = max(l.clock, l.inflight[first].at) + time.Duration(l.now.Cost.SecPerMessage*float64(time.Second))
		}
		if busy >= 0 && (first < 0 || l.now.Time(busy) < handled) {
			if err := l.renderFrame(busy); err != nil {
				return msg.Message{}, err
			}
			continue
		}
		if first < 0 {
			return msg.Message{}, errors.New("farm: virtual NOW idle with the master still waiting")
		}
		v := l.inflight[first]
		l.inflight = append(l.inflight[:first], l.inflight[first+1:]...)
		l.clock = handled
		return v.m, nil
	}
}

// Send carries a master message across the bus and has the machine act
// on it at once: the receiver first catches up to the master's time (an
// idle machine was waiting; a busy one stands at its next frame boundary,
// where a real worker reads its control messages).
func (l *virtualLink) Send(to string, m msg.Message) error {
	i, ok := l.byName[to]
	if !ok {
		return fmt.Errorf("farm: unknown machine %q", to)
	}
	l.now.AdvanceTo(i, l.clock)
	l.now.Communicate(i, len(m.Data))
	vm := l.machines[i]
	switch m.Tag {
	case TagTask:
		tm, err := decodeTask(m.Data)
		if err != nil {
			return err
		}
		step, err := newFrameStep(l.cfg.Scene, tm, &vm.ranges, nil, nil)
		if err != nil {
			return err
		}
		vm.step, vm.next, vm.end = step, tm.Task.StartFrame, tm.Task.EndFrame
	case TagTruncate:
		// As runTask: stop at the requested frame, or where the machine is
		// if past it; off that task, answer with the request itself.
		id, stop, err := decodePair(m.Data)
		if err != nil {
			return err
		}
		running := vm.step != nil && vm.step.tm.Task.ID == id
		if running {
			if vm.next > stop {
				stop = vm.next
			}
			vm.end = stop
		}
		l.post(i, TagTruncateAck, encodePair(id, stop))
		if running && vm.next >= vm.end {
			l.finishTask(i)
		}
	case TagShutdown: // the run is over
	default:
		return fmt.Errorf("farm: machine %s: unexpected tag %d", to, m.Tag)
	}
	return nil
}

// post charges machine i one message to the master and puts it in
// flight, returning its arrival time.
func (l *virtualLink) post(i, tag int, data []byte) time.Duration {
	at := l.now.Communicate(i, len(data))
	l.inflight = append(l.inflight, vmsg{at: at, from: i, m: msg.Message{Tag: tag, From: l.cfg.Machines[i].Name, Data: data}})
	return at
}

// renderFrame advances machine i by one frame of its task: the real frame
// step, the cost model's charge for it, the real encoded result on the bus.
func (l *virtualLink) renderFrame(i int) error {
	vm := l.machines[i]
	f := vm.next
	fd, work, err := vm.step.render(f)
	if err != nil {
		return err
	}
	// What the machine holds: its frames, the task's engine and Range, the
	// task framebuffer. Only the virtual NOW asks.
	work.MemoryMB = float64(vm.step.geo.WorkingSet(vm.step.eng)+len(vm.step.buf.Pix)) / (1 << 20)
	began := l.now.Time(i)
	rendered := l.now.Exec(i, work)
	fd.ElapsedNs = int64(rendered - began)
	vm.track.Span(timeline.OpFrame, f, int64(began), int64(rendered), int64(fd.Rendered))
	if vm.next+1 >= vm.end {
		l.postOSStats(i)
	}
	// A task's first frame is a key-frame (see runTask).
	sent := l.post(i, TagFrameDone, vm.step.encode(&fd, f == vm.step.tm.Task.StartFrame))
	vm.track.Span(timeline.OpSend, f, int64(rendered), int64(sent), int64(fd.Region.Area()*3))
	vm.next++
	if vm.next >= vm.end {
		l.finishTask(i)
	}
	return nil
}

// postOSStats ships machine i's object-space counters (see takeOSStats).
func (l *virtualLink) postOSStats(i int) {
	if data := l.machines[i].step.takeOSStats(); data != nil {
		l.post(i, TagOSStats, data)
	}
}

// finishTask reports machine i's task complete and leaves it idle.
func (l *virtualLink) finishTask(i int) {
	vm := l.machines[i]
	l.postOSStats(i)
	l.post(i, TagTaskDone, encodePair(vm.step.tm.Task.ID, vm.end))
	vm.step = nil
}

// RenderVirtual runs the farm on the deterministic virtual NOW
// (internal/cluster): RunMaster's loop over a virtualLink. Repeated runs
// with the same Config produce identical images, statistics and
// makespans. This is the driver behind Table 1.
func RenderVirtual(cfg Config) (*Result, error) { return renderVirtual(cfg, runMaster) }

// renderVirtual is RenderVirtual with the master loop to run.
func renderVirtual(cfg Config, loop masterLoop) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ln, err := newVirtualLink(&cfg)
	if err != nil {
		return nil, err
	}
	res, err := loop(cfg, ln, nil)
	if err != nil {
		return nil, err
	}
	if res.Timeline != nil {
		res.Timeline.Meta["clock"] = "virtual"
	}
	return res, nil
}

// RenderSingle runs the whole animation on one machine of the virtual
// NOW (the paper's single-processor baselines, columns (1)-(3) of
// Table 1: the fastest machine is used). Coherence is applied when
// cfg.Coherence is set.
func RenderSingle(cfg Config, machine cluster.Machine) (*Result, error) {
	cfg.Machines = []cluster.Machine{machine}
	// One machine, whole frames: sequence division is a single task.
	cfg.Scheme = partition.SequenceDivision{Adaptive: false}
	return RenderVirtual(cfg)
}
