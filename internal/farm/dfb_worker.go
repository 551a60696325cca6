package farm

import (
	"fmt"
	"sync/atomic"

	"nowrender/internal/compositor"
	"nowrender/internal/msg"
)

// sinkLink is a worker's data connection to one compositor sink. A
// small receive pump watches for TagNeedKey (the sink lost the delta
// base and wants a fresh key-frame) and for the conn dying; the render
// loop polls both between frames, so the link needs no locking beyond
// the two atomics.
type sinkLink struct {
	addr    string
	conn    msg.Conn
	needKey atomic.Bool
	dead    atomic.Bool
	// rekey forces the next frame shipped on this link to be a
	// key-frame: set on (re)dial, because the sink behind a fresh conn
	// may be a restarted process with no base for our deltas.
	rekey bool
}

func (l *sinkLink) pump() {
	for {
		m, err := l.conn.Recv()
		if err != nil {
			l.dead.Store(true)
			return
		}
		if m.Tag == compositor.TagNeedKey {
			l.needKey.Store(true)
		}
	}
}

// takeNeedKey consumes a pending key-frame request.
func (l *sinkLink) takeNeedKey() bool { return l.needKey.Swap(false) }

// sinkLinks is the worker's sink connection table, persistent across
// tasks so delta chains survive task boundaries on the same shard.
type sinkLinks struct {
	worker string
	dial   func(addr string) (msg.Conn, error)
	links  map[string]*sinkLink
}

func newSinkLinks(worker string, dial func(string) (msg.Conn, error)) *sinkLinks {
	return &sinkLinks{worker: worker, dial: dial, links: make(map[string]*sinkLink)}
}

// get returns a live link to addr, dialing (or re-dialing a dead link)
// as needed. A fresh link has rekey set and has already sent its
// TagJoin handshake.
func (s *sinkLinks) get(addr string) (*sinkLink, error) {
	if l := s.links[addr]; l != nil && !l.dead.Load() {
		return l, nil
	}
	if s.dial == nil {
		// Only RenderLocal's workers have sinks to reach; any other
		// worker sends its pixels to the master.
		return nil, fmt.Errorf("farm: worker %s: no route to sink %s", s.worker, addr)
	}
	conn, err := s.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("farm: worker %s: sink %s: %w", s.worker, addr, err)
	}
	l := &sinkLink{addr: addr, conn: conn, rekey: true}
	if err := conn.Send(msg.Message{Tag: compositor.TagJoin, From: s.worker, Data: msg.Encode(&compositor.Join{Worker: s.worker})}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("farm: worker %s: sink %s join: %w", s.worker, addr, err)
	}
	go l.pump()
	s.links[addr] = l
	return l, nil
}

// push ships an encoded result to lk's sink, re-dialing once on failure:
// the sink may have restarted and lost our delta base, so the frame goes
// again as a key-frame. It returns the link that took the pixels and
// their payload; a nil link means the master must relay them.
func (s *sinkLinks) push(lk *sinkLink, step *frameStep, fd *frameDoneMsg, data []byte) (*sinkLink, []byte) {
	for retry := false; ; retry = true {
		if err := lk.conn.Send(msg.Message{Tag: compositor.TagPix, From: s.worker, Data: data}); err == nil {
			lk.rekey = false
			return lk, data
		}
		lk.dead.Store(true)
		if retry {
			return nil, data
		}
		if lk, _ = s.get(lk.addr); lk == nil {
			return nil, data
		}
		data = step.encode(fd, true)
	}
}

// close shuts every link down.
func (s *sinkLinks) close() {
	for _, l := range s.links {
		l.conn.Close()
	}
	s.links = make(map[string]*sinkLink)
}
