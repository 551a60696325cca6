// Package compositor implements the distributed-framebuffer sinks that
// take pixel traffic off the farm master's hot path — the topology of
// "Scalable Ray Tracing Using the Distributed FrameBuffer" grafted onto
// the paper's master/worker farm. Each sink owns a contiguous shard of
// the frame range (partition.ShardMap): DFB-capable workers ship their
// frame results (key-frames and dirty-span deltas, the shared
// internal/wire codec) straight to the owning sink and send the master
// only small acks; the sink reassembles frames, fires OnFrame the
// moment a frame completes, and confirms each merged region to the
// master over a control conn so the master's completion, retry, and
// requeue bookkeeping keeps working without ever touching pixels.
//
// A sink is a single event loop over an msg.Hub, so its assembly needs
// no locks; Registry runs N of them in-process for RenderLocal and
// tests.
package compositor

import (
	"fmt"
	"sync"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	"nowrender/internal/wire"
)

// Config tunes one sink.
type Config struct {
	// Name labels the sink in timelines and logs ("sink0").
	Name string
	// OnFrame, when non-nil, observes each frame the moment its shard
	// assembly completes — progressive delivery for SSE streaming and
	// frame emission. Its errors do not stop the sink: the master owns
	// run-abort decisions.
	OnFrame func(frame int, img *fb.Framebuffer) error
	// Timeline, when non-nil, records the sink's assembly spans. An
	// in-process sink shares the master's recorder, so its track lands
	// in the merged cluster timeline with no clock correction needed.
	Timeline *timeline.Recorder
}

// maxPending bounds frame results buffered while a sink waits for the
// master's (re-)init; beyond it the oldest are dropped and the workers
// re-send via the normal miss/requeue path.
const maxPending = 1024

// Compositor is one frame-shard sink.
type Compositor struct {
	cfg Config
	hub *msg.Hub

	mu sync.Mutex // guards everything below (loop writes, API reads)

	// Run state, set by TagInit.
	inited     bool
	gen        int
	w, h       int
	start, end int
	asm        *wire.Assembly
	master     string // control conn name (sent TagInit)

	// workers maps data-conn name → worker name from TagJoin.
	workers map[string]string
	// pending holds results that arrived before (re-)init.
	pending []msg.Message

	wire   stats.WireStats
	dups   uint64
	epoch  time.Time
	track  *timeline.Track
	nconns int

	closed  bool
	loopErr error
	done    chan struct{}
}

// New starts a sink's event loop. Close stops it.
func New(cfg Config) *Compositor {
	if cfg.Name == "" {
		cfg.Name = "sink"
	}
	c := &Compositor{
		cfg:     cfg,
		hub:     msg.NewHub(),
		workers: make(map[string]string),
		epoch:   time.Now(),
		done:    make(chan struct{}),
	}
	if cfg.Timeline != nil {
		c.track = cfg.Timeline.Track(cfg.Name + "/assemble")
	}
	go c.loop()
	return c
}

// AddConn hands the sink a new connection (accepted worker or dialing
// master); the sink tells control and data conns apart by the first
// message they carry.
func (c *Compositor) AddConn(conn msg.Conn) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("compositor: %s closed", c.cfg.Name)
	}
	c.nconns++
	name := fmt.Sprintf("c%03d", c.nconns)
	c.mu.Unlock()
	return c.hub.Attach(name, conn)
}

// Closed reports whether Close was called (or the loop exited).
func (c *Compositor) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close stops the event loop and closes every conn.
func (c *Compositor) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.hub.Close()
	<-c.done
	return err
}

// Stats snapshots the sink's wire counters.
func (c *Compositor) Stats() stats.WireStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.wire
	if len(c.wire.BaseMissByWorker) > 0 {
		st.BaseMissByWorker = make(map[string]uint64, len(c.wire.BaseMissByWorker))
		for w, n := range c.wire.BaseMissByWorker {
			st.BaseMissByWorker[w] = n
		}
	}
	return st
}

// Frame returns the assembled framebuffer of an absolute frame in the
// sink's shard (nil while partial or after a restart).
func (c *Compositor) Frame(absFrame int) *fb.Framebuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.asm == nil || absFrame < c.start || absFrame >= c.end || !c.asm.FrameComplete(absFrame) {
		return nil
	}
	return c.asm.Frame(absFrame)
}

func (c *Compositor) loop() {
	defer close(c.done)
	for {
		m, err := c.hub.Recv()
		if err != nil {
			c.mu.Lock()
			c.closed = true
			c.loopErr = err
			c.mu.Unlock()
			return
		}
		c.handle(m)
	}
}

func (c *Compositor) handle(m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m.Tag {
	case TagInit:
		var in Init
		if msg.Decode(m.Data, &in) != nil {
			return
		}
		// A re-init (the master re-dialed the sink) starts a fresh shard
		// assembly; completed frames already reached OnFrame, and the
		// master requeues whatever was partial.
		c.inited = true
		c.gen = in.Gen
		c.w, c.h = in.W, in.H
		c.start, c.end = in.Start, in.End
		c.asm = wire.NewAssemblyRange(in.W, in.H, in.Start, in.End)
		c.master = m.From
		pend := c.pending
		c.pending = nil
		for _, pm := range pend {
			c.assemble(pm)
		}
	case TagJoin:
		var j Join
		if msg.Decode(m.Data, &j) == nil {
			c.workers[m.From] = j.Worker
		}
	case TagPix, TagRelayPix:
		if !c.inited {
			if len(c.pending) >= maxPending {
				c.pending = c.pending[1:]
			}
			c.pending = append(c.pending, m)
			return
		}
		c.assemble(m)
	case msg.TagDown:
		delete(c.workers, m.From)
		if m.From == c.master {
			c.master = ""
		}
	}
}

// assemble merges one TagPix/TagRelayPix into the shard. Called with
// c.mu held (the loop is the only writer; the lock orders API readers).
func (c *Compositor) assemble(m msg.Message) {
	data := m.Data
	worker := c.workers[m.From]
	relayed := m.Tag == TagRelayPix
	if relayed {
		var r Relay
		if msg.Decode(m.Data, &r) != nil {
			return
		}
		worker, data = r.Worker, r.FrameDone
	}
	var tlStart int64
	if c.track != nil {
		tlStart = c.track.Begin()
	}
	fd, err := wire.DecodeFrameDone(data)
	if err != nil {
		c.report(TagMiss, msg.Encode(&Miss{Gen: c.gen, Worker: worker, Reason: MissMalformed}))
		return
	}
	defer fd.Release()
	defer func() {
		if c.track != nil {
			c.track.EndArg(timeline.OpSinkAssemble, fd.Frame, tlStart, int64(len(data)))
		}
	}()
	if fd.Frame < c.start || fd.Frame >= c.end {
		c.report(TagMiss, msg.Encode(&Miss{Gen: c.gen, Frame: fd.Frame, Region: fd.Region, Worker: worker, Reason: MissShard}))
		return
	}
	c.wire.SinkIngressBytes += uint64(len(data))
	var complete, dup bool
	if fd.Kind == wire.KindDelta {
		complete, dup, err = c.asm.DeliverSpans(fd.Frame, fd.Region, fd.Spans, fd.Pix, time.Since(c.epoch))
	} else {
		complete, dup, err = c.asm.Deliver(fd.Frame, fd.Region, fd.Pix, time.Since(c.epoch))
	}
	switch {
	case err == wire.ErrDeltaBase:
		// The delta chain broke (lost base, or the sink restarted under
		// the worker): tell the master so the frame stays requeueable, and
		// ask the worker itself for a fresh key-frame so the chain heals
		// without a re-render round trip. A worker whose results are being
		// relayed has no link to this sink — the master's requeue covers it.
		c.wire.AddBaseMiss(worker)
		if c.track != nil {
			c.track.Instant(timeline.OpNeedKey, fd.Frame, int64(fd.Frame))
		}
		c.report(TagMiss, msg.Encode(&Miss{Gen: c.gen, Frame: fd.Frame, Region: fd.Region, Worker: worker, Reason: MissBase}))
		if !relayed {
			_ = c.hub.Send(m.From, msg.Message{Tag: TagNeedKey, Data: msg.Encode(&NeedKey{Frame: fd.Frame, Gen: c.gen})})
		}
	case err != nil:
		c.report(TagMiss, msg.Encode(&Miss{Gen: c.gen, Frame: fd.Frame, Region: fd.Region, Worker: worker, Reason: MissMalformed}))
	case dup:
		// Speculation or a post-reset re-send: first result won, and its
		// confirmation already carries the master's bookkeeping.
		c.dups++
	default:
		if fd.Kind == wire.KindDelta {
			c.wire.FramesDelta++
		} else {
			c.wire.FramesFull++
		}
		c.wire.CountEncoding(fd.Encoding == wire.EncSpan, uint64(len(data)))
		c.wire.RawBytes += uint64(fd.RawPixBytes())
		c.wire.WireBytes += uint64(len(data))
		if complete && c.cfg.OnFrame != nil {
			_ = c.cfg.OnFrame(fd.Frame, c.asm.Frame(fd.Frame))
		}
		c.report(TagDelivered, msg.Encode(&Delivered{
			Gen: c.gen, Frame: fd.Frame, Region: fd.Region, Worker: worker,
			Kind: fd.Kind, WireBytes: len(data), RawBytes: fd.RawPixBytes(),
			Complete: complete,
		}))
	}
}

// report sends a confirmation on the control conn, if one is attached.
func (c *Compositor) report(tag int, data []byte) {
	if c.master == "" {
		return
	}
	_ = c.hub.Send(c.master, msg.Message{Tag: tag, Data: data})
}

// Addr names in-process sink i; Registry.Dial resolves it.
func Addr(i int) string { return fmt.Sprintf("sink%d", i) }

// Registry runs in-process sinks for RenderLocal and tests. Dial
// connects a msg.Pipe to the live sink behind an Addr, creating it with
// the factory on first use — and re-creating it after a Close, which is
// exactly a compositor restart from the cluster's point of view.
type Registry struct {
	mu      sync.Mutex
	factory func(i int) *Compositor
	sinks   map[int]*Compositor
}

// NewRegistry makes a registry; factory builds sink i on demand.
func NewRegistry(factory func(i int) *Compositor) *Registry {
	return &Registry{factory: factory, sinks: make(map[int]*Compositor)}
}

// Dial connects to the sink behind addr (an Addr value).
func (r *Registry) Dial(addr string) (msg.Conn, error) {
	var i int
	if _, err := fmt.Sscanf(addr, "sink%d", &i); err != nil {
		return nil, fmt.Errorf("compositor: bad sink address %q", addr)
	}
	c, err := r.sink(i)
	if err != nil {
		return nil, err
	}
	local, remote := msg.Pipe(64)
	if err := c.AddConn(remote); err != nil {
		return nil, err
	}
	return local, nil
}

func (r *Registry) sink(i int) (*Compositor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 {
		return nil, fmt.Errorf("compositor: bad sink index %d", i)
	}
	if c, ok := r.sinks[i]; ok && !c.Closed() {
		return c, nil
	}
	c := r.factory(i)
	r.sinks[i] = c
	return c, nil
}

// Sink returns the live sink behind index i, or nil.
func (r *Registry) Sink(i int) *Compositor {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.sinks[i]; ok && !c.Closed() {
		return c
	}
	return nil
}

// CloseAll stops every live sink.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	sinks := make([]*Compositor, 0, len(r.sinks))
	for _, c := range r.sinks {
		sinks = append(sinks, c)
	}
	r.mu.Unlock()
	for _, c := range sinks {
		_ = c.Close()
	}
}
