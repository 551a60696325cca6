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

// vmachine is one workstation of the virtual NOW: the farm's worker,
// hosted on the machine's cost-model clock, the bus and its track (nil
// when recording is off).
type vmachine struct {
	l     *virtualLink
	i     int
	track *timeline.Track
	// rendered is when the last frame's render ended: its send span starts
	// there, whatever the machine posts in between.
	rendered time.Duration
	w        worker
}

// vmsg is a message on its way to the master, off the bus at time at.
type vmsg struct {
	at   time.Duration
	from int
	m    msg.Message
}

// virtualLink is the master loop's link to the virtual NOW: a
// deterministic discrete-event simulation on the caller's goroutine. Each
// machine says hello at t=0 and then is the real worker state machine,
// stepped inline: a master message is handled at the machine's next frame
// boundary, and a busy machine renders its frames one at a time. Time is
// what the cost model charges for the frames' work, the bus for the real
// encoded messages and the master for handling each message, one at a
// time. Nothing is lost, late or garbled, so Config.DFB, Heartbeat,
// Liveness, StallTimeout and WrapConn have nothing to act on.
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
		vm := &vmachine{l: l, i: i, track: cfg.Timeline.Track(m.Name + "/main")}
		vm.w = worker{name: m.Name, sc: cfg.Scene, host: vm, ranges: new(rangeHolder)}
		l.machines = append(l.machines, vm)
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
			if m.w.busy() && (busy < 0 || l.now.Time(i) < l.now.Time(busy)) {
				busy = i
			}
		}
		var handled time.Duration // when the master will be done with first
		if first >= 0 {
			handled = max(l.clock, l.inflight[first].at) + time.Duration(l.now.Cost.SecPerMessage*float64(time.Second))
		}
		if busy >= 0 && (first < 0 || l.now.Time(busy) < handled) {
			if err := l.machines[busy].w.frame(); err != nil {
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
	_, err := l.machines[i].w.handle(m)
	return err
}

// send charges the machine one message to the master on the bus and
// puts it in flight, to arrive when the machine's clock says.
func (vm *vmachine) send(tag int, data []byte) error {
	l := vm.l
	at := l.now.Communicate(vm.i, len(data))
	l.inflight = append(l.inflight, vmsg{at: at, from: vm.i, m: msg.Message{Tag: tag, From: vm.w.name, Data: data}})
	return nil
}

func (vm *vmachine) clock() int64 { return int64(vm.l.now.Time(vm.i)) }

func (vm *vmachine) tracks(taskMsg) (*timeline.Track, []*timeline.Track) { return nil, nil }

// render is the real frame step, charged on the machine's clock for its
// work and for what it holds (frameStep.workingSet; only the virtual NOW
// asks).
func (vm *vmachine) render(s *frameStep, f int) (frameDoneMsg, error) {
	fd, work, err := s.render(f)
	if err != nil {
		return fd, err
	}
	work.MemoryMB = float64(s.workingSet()) / (1 << 20)
	began := vm.l.now.Time(vm.i)
	vm.rendered = vm.l.now.Exec(vm.i, work)
	fd.ElapsedNs = int64(vm.rendered - began)
	vm.track.Span(timeline.OpFrame, f, int64(began), int64(vm.rendered), int64(fd.Rendered))
	return fd, nil
}

// ship puts the real encoded result on the bus.
func (vm *vmachine) ship(s *frameStep, fd frameDoneMsg, first bool) error {
	err := vm.send(TagFrameDone, s.encode(&fd, first))
	vm.track.Span(timeline.OpSend, fd.Frame, int64(vm.rendered), vm.clock(), int64(fd.Region.Area()*3))
	return err
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
