package farm

import (
	"fmt"

	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
)

// pendKey identifies one frame result in flight to a compositor sink.
type pendKey struct {
	frame  int
	region fb.Rect
}

// sinkControl is the master's control-plane view of the compositor
// fleet under DFB. Sink connections live on the same hub as the
// workers, so confirmations interleave with worker traffic in the
// single-threaded event loop; the attach name carries the generation
// ("sink00.g1") because a hub name can never be re-attached after a
// detach, and the generation lets the master discard stale messages
// from a connection it already replaced.
type sinkControl struct {
	dfb   *DFBConfig
	hub   *msg.Hub
	w, h  int
	shard partition.ShardMap
	gens  []int
	names []string // current hub attach name per sink
	// byName maps every attach name ever used to its sink index; a name
	// that no longer matches names[i] marks a stale (replaced) conn.
	byName      map[string]int
	redialsLeft []int
	// pending maps a (frame, region) that a worker acked as shipped to a
	// sink — or the master relayed there — to the shipper, until the
	// sink confirms or reports a miss. requeueGaps skips pending entries
	// so completion bookkeeping never re-renders work that is merely in
	// flight; the entries are cleared when the shipper dies or the sink
	// restarts, so nothing can hang on a confirmation that will never
	// come.
	pending map[pendKey]string
}

func newSinkControl(dfb *DFBConfig, hub *msg.Hub, w, h int, shard partition.ShardMap) *sinkControl {
	n := len(dfb.addrs)
	s := &sinkControl{
		dfb: dfb, hub: hub, w: w, h: h, shard: shard,
		gens:        make([]int, n),
		names:       make([]string, n),
		byName:      make(map[string]int, n),
		redialsLeft: make([]int, n),
		pending:     make(map[pendKey]string),
	}
	for i := range s.redialsLeft {
		s.redialsLeft[i] = dfb.redialBudget()
	}
	return s
}

// dial (re)connects sink i: bump the generation, attach the fresh conn
// under a generation-qualified name, and send TagInit for the shard.
func (s *sinkControl) dial(i int) error {
	conn, err := s.dfb.dial(s.dfb.addrs[i])
	if err != nil {
		return fmt.Errorf("farm: sink %d (%s): %w", i, s.dfb.addrs[i], err)
	}
	if s.names[i] != "" {
		s.hub.Detach(s.names[i])
	}
	s.gens[i]++
	name := fmt.Sprintf("sink%02d.g%d", i, s.gens[i])
	if err := s.hub.Attach(name, conn); err != nil {
		conn.Close()
		return fmt.Errorf("farm: sink %d: %w", i, err)
	}
	s.names[i] = name
	s.byName[name] = i
	start, end := s.shard.Shard(i)
	init := compositor.Init{Gen: s.gens[i], W: s.w, H: s.h, Start: start, End: end}
	if err := s.hub.Send(name, msg.Message{Tag: compositor.TagInit, Data: msg.Encode(&init)}); err != nil {
		return fmt.Errorf("farm: sink %d init: %w", i, err)
	}
	return nil
}

// dialAll connects the whole fleet at run start.
func (s *sinkControl) dialAll() error {
	for i := range s.dfb.addrs {
		if err := s.dial(i); err != nil {
			return err
		}
	}
	return nil
}

// index resolves a hub name to a sink index; stale reports a message
// from a connection the master already replaced.
func (s *sinkControl) index(name string) (i int, stale, ok bool) {
	i, ok = s.byName[name]
	if !ok {
		return 0, false, false
	}
	return i, s.names[i] != name, true
}

// relay forwards a master-routed frame result to the owning sink; the
// caller marks it pending.
func (s *sinkControl) relay(worker string, frame int, frameDone []byte) {
	si := s.shard.Of(frame)
	// Best-effort: a failed send surfaces as the sink's TagDown, whose
	// recovery resets and requeues the shard.
	_ = s.hub.Send(s.names[si], msg.Message{
		Tag: compositor.TagRelayPix, Data: msg.Encode(&compositor.Relay{Worker: worker, FrameDone: frameDone}),
	})
}

func (s *sinkControl) isPending(frame int, region fb.Rect) bool {
	_, ok := s.pending[pendKey{frame, region}]
	return ok
}

func (s *sinkControl) setPending(frame int, region fb.Rect, worker string) {
	s.pending[pendKey{frame, region}] = worker
}

func (s *sinkControl) clearPending(frame int, region fb.Rect) {
	delete(s.pending, pendKey{frame, region})
}

// clearWorker drops every pending entry shipped by one worker — called
// when the worker is retired, since its unconfirmed results may have
// died with it.
func (s *sinkControl) clearWorker(worker string) {
	for k, who := range s.pending {
		if who == worker {
			delete(s.pending, k)
		}
	}
}

// clearShard drops every pending entry in a sink's frame range — called
// when the sink restarts, since whatever was in flight to it is gone.
func (s *sinkControl) clearShard(i int) {
	start, end := s.shard.Shard(i)
	for k := range s.pending {
		if k.frame >= start && k.frame < end {
			delete(s.pending, k)
		}
	}
}
