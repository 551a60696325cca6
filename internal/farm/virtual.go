package farm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/msg"
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
	// decide is the fault plan's schedule for its messages (nil: none);
	// down, once it has left the network, stops it rendering and sending.
	decide func(tag int, d faulty.Dir, data []byte) (*faulty.Rule, []byte)
	down   bool
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
// time. Heartbeat ticks fall at multiples of Config.tickEvery on the
// master's clock and cost it nothing. Config.Faults reaches every message
// a machine sends or receives, on the virtual clock (see hit); without a
// plan nothing is lost, late or garbled. Config.DFB has nothing to act on.
type virtualLink struct {
	cfg      *Config
	now      *cluster.VirtualNOW
	machines []*vmachine
	byName   map[string]int
	inflight []vmsg
	// clock is the master's time: when it finished handling the last
	// message Recv returned.
	clock time.Duration
	// every is the tick interval (0: no ticks), tick the next tick's time.
	every, tick time.Duration
	// quiet is when the last message other than a pong arrived or the
	// last fault hit; settle is how long after it a tick can still retire
	// someone. Pongs refresh only liveness, so an idle NOW past quiet+settle
	// is pinging and ponging for ever and fails as idle.
	quiet, settle time.Duration
}

func newVirtualLink(cfg *Config) (*virtualLink, error) {
	now, err := cluster.NewVirtualNOW(cfg.Machines)
	if err != nil {
		return nil, err
	}
	l := &virtualLink{cfg: cfg, now: now, byName: make(map[string]int), every: cfg.tickEvery()}
	l.tick = l.every
	l.settle = cfg.Liveness + l.every
	// The loop's own timeline calls now stamp the master's virtual time.
	cfg.Timeline.SetClock(func() int64 { return int64(l.clock) })
	for i, m := range cfg.Machines {
		if _, dup := l.byName[m.Name]; dup || m.Name == "" {
			return nil, fmt.Errorf("farm: machine %d needs a unique name, has %q", i, m.Name)
		}
		l.byName[m.Name] = i
		vm := &vmachine{l: l, i: i, track: cfg.Timeline.Track(m.Name + "/main"), decide: cfg.Faults.Decide(m.Name)}
		vm.w = worker{name: m.Name, sc: cfg.Scene, host: vm, ranges: new(rangeHolder)}
		l.machines = append(l.machines, vm)
		// The hello leaves at the machine's clock, 0 unless delayed.
		if data, ok := vm.hit(TagHello, faulty.SendOnly, msg.Encode(&hello{ProtocolVersion, m.Name})); ok {
			l.inflight = append(l.inflight, vmsg{at: now.Time(i), from: i, m: msg.Message{Tag: TagHello, From: m.Name, Data: data}})
		}
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

// Detach takes a retired machine off the network.
func (l *virtualLink) Detach(name string) {
	if i, ok := l.byName[name]; ok {
		l.machines[i].down = true
	}
}

// Recv is one conservative discrete-event step: hand over the earliest
// event — a message in flight, handled from when both it and the master
// are free, or a tick, due before that message arrives — unless a busy
// machine's clock is earlier than the handling's end: it could yet send
// something sooner, so it renders its next frame first. Ties go to the
// message, then to the lower machine index. Every busy clock is therefore
// at or past the master's, and so is everything sent later: time never
// runs back.
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
			if !m.down && m.w.busy() && (busy < 0 || l.now.Time(i) < l.now.Time(busy)) {
				busy = i
			}
		}
		tick := l.every > 0 && (first < 0 || l.tick < l.inflight[first].at) &&
			(first >= 0 || busy >= 0 || l.tick <= l.quiet+l.settle)
		handled := max(l.clock, l.tick) // when the master will be done with the event
		if !tick && first >= 0 {
			handled = max(l.clock, l.inflight[first].at) + time.Duration(l.now.Cost.SecPerMessage*float64(time.Second))
		}
		if busy >= 0 && ((first < 0 && !tick) || l.now.Time(busy) < handled) {
			if err := l.machines[busy].fail(l.machines[busy].w.frame()); err != nil {
				return msg.Message{}, err
			}
			continue
		}
		l.clock = handled
		switch {
		case tick:
			l.tick = (l.clock/l.every + 1) * l.every
			return msg.Message{Tag: tagTick}, nil
		case first < 0:
			return msg.Message{}, errors.New("farm: virtual NOW idle with the master still waiting")
		}
		v := l.inflight[first]
		l.inflight = append(l.inflight[:first], l.inflight[first+1:]...)
		if v.m.Tag != TagPong {
			l.quiet = l.clock
		}
		return v.m, nil
	}
}

// Send carries a master message across the bus and has the machine act
// on it at once: the receiver first catches up to the master's time (an
// idle machine was waiting; a busy one stands at its next frame boundary,
// where a real worker reads its control messages). A machine that is down
// cannot be reached.
func (l *virtualLink) Send(to string, m msg.Message) error {
	i, ok := l.byName[to]
	if !ok {
		return fmt.Errorf("farm: unknown machine %q", to)
	}
	vm := l.machines[i]
	if vm.down {
		return msg.ErrClosed
	}
	l.now.AdvanceTo(i, l.clock)
	l.now.Communicate(i, len(m.Data))
	if m.Data, ok = vm.hit(m.Tag, faulty.RecvOnly, m.Data); !ok {
		return nil
	}
	_, err := vm.w.handle(m)
	return vm.fail(err)
}

// fail is the machine's worker returning err. Under a fault plan a
// non-nil err takes the machine off the network, once, with a TagDown
// at its clock, as a goroutine worker's exit does under RenderLocal;
// without one, err is the run's.
func (vm *vmachine) fail(err error) error {
	l := vm.l
	if err == nil || l.cfg.Faults == nil {
		return err
	}
	if !vm.down {
		vm.down = true
		l.inflight = append(l.inflight, vmsg{at: l.now.Time(vm.i), from: vm.i, m: msg.Message{Tag: msg.TagDown, From: vm.w.name}})
	}
	return nil
}

// hit applies the fault plan to one of the machine's messages, going in
// direction d: a delay holds the machine back by its length, corruption
// and truncation mangle the payload, and a sever takes the machine off
// the network. It returns the payload to carry on with, or false when
// the message is lost — as is every message of a machine that is down.
func (vm *vmachine) hit(tag int, d faulty.Dir, data []byte) ([]byte, bool) {
	if vm.down || vm.decide == nil {
		return data, !vm.down
	}
	r, data := vm.decide(tag, d, data)
	if r != nil {
		vm.l.quiet = max(vm.l.quiet, vm.l.now.Time(vm.i))
	}
	switch {
	case r == nil:
	case r.Action == faulty.Drop:
		return nil, false
	case r.Action == faulty.Sever:
		vm.fail(msg.ErrClosed) // under a plan, so the machine leaves
		return nil, false
	case r.Action == faulty.Delay:
		vm.l.now.AdvanceTo(vm.i, vm.l.now.Time(vm.i)+r.Delay)
	}
	return data, true
}

// send charges the machine one message to the master on the bus and
// puts it in flight, to arrive when the machine's clock says — unless
// the fault plan loses it or the machine is down. Either way the worker
// carries on, as over a conn; a down machine is stepped no further.
func (vm *vmachine) send(tag int, data []byte) error {
	data, ok := vm.hit(tag, faulty.SendOnly, data)
	if !ok {
		return nil
	}
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
// (internal/cluster): the master loop over a virtualLink. Repeated runs
// with the same Config, fault plan included, produce identical images,
// statistics and makespans. This is the driver behind Table 1.
func RenderVirtual(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ln, err := newVirtualLink(&cfg)
	if err != nil {
		return nil, err
	}
	res, err := runMaster(cfg, ln, nil)
	if err != nil {
		return res, err
	}
	if res.Timeline != nil {
		res.Timeline.Meta["clock"] = "virtual"
	}
	return res, nil
}
