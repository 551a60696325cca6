package fleetd

import (
	"context"
	"errors"
	"sync"
	"time"

	"nowrender/internal/msg"
)

// Server speaks the broker protocol over msg.Conns: TCP conns accepted
// from a msg.Listener in cmd/nowfleetd, or in-process pipe ends handed
// to ServeConn by the multi-replica test harness. One handler goroutine
// runs per connection; acquires, which block for capacity, each get
// their own goroutine so one starved replica cannot stall another's
// renews on the same conn.
type Server struct {
	b *Broker

	mu     sync.Mutex
	conns  map[msg.Conn]context.CancelFunc
	closed bool
	wg     sync.WaitGroup

	sweepStop chan struct{}
}

// NewServer wraps a broker. The server sweeps expired leases every
// sweep interval (0 = half the broker's minimum term floor) so a
// crashed replica's units return even when nobody is acquiring.
func NewServer(b *Broker, sweep time.Duration) *Server {
	if sweep <= 0 {
		sweep = MinTerm / 2
	}
	s := &Server{
		b:         b,
		conns:     make(map[msg.Conn]context.CancelFunc),
		sweepStop: make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				b.Expire()
			case <-s.sweepStop:
				return
			}
		}
	}()
	return s
}

// Broker returns the served broker (tests assert on its ledger).
func (s *Server) Broker() *Broker { return s.b }

// Serve accepts connections until the listener closes. It blocks; run
// it in a goroutine and Close the listener (then the server) to stop.
func (s *Server) Serve(l *msg.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		if err := s.ServeConn(c); err != nil {
			c.Close()
			return err
		}
	}
}

// ServeConn adopts one established connection, spawning its handler.
// It fails once the server is closed.
func (s *Server) ServeConn(c msg.Conn) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return errors.New("fleetd: server closed")
	}
	s.conns[c] = cancel
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.handle(ctx, c)
		cancel()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	return nil
}

// handle runs one connection to completion.
func (s *Server) handle(ctx context.Context, c msg.Conn) {
	m, err := c.Recv()
	if err != nil || m.Tag != TagHello {
		return
	}
	var hello Hello
	if msg.Decode(m.Data, &hello) != nil {
		return
	}
	welcome := msg.Encode(&Welcome{
		Epoch:  s.b.Epoch(),
		TermMS: s.b.DefaultTerm().Milliseconds(),
	})
	if err := c.Send(msg.Message{Tag: TagWelcome, Data: welcome}); err != nil {
		return
	}
	if hello.Role == RoleWorker {
		// A worker conn is a capacity member for as long as it lives:
		// registration on hello, deregistration (lame-duck for leased
		// units) when the conn drops.
		s.b.Join(hello.Name, hello.Slots)
		defer s.b.Leave(hello.Name)
	}

	// Acquire handlers block on broker capacity; sends on the shared
	// conn are safe concurrently (both transports serialize Send).
	var pending sync.WaitGroup
	defer pending.Wait()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch m.Tag {
		case TagAcquire:
			var req AcquireReq
			if msg.Decode(m.Data, &req) != nil {
				return // malformed peer: drop the conn, leases expire
			}
			pending.Add(1)
			go func() {
				defer pending.Done()
				s.acquire(ctx, c, hello.Name, req)
			}()
		case TagRenew:
			var req RenewReq
			if msg.Decode(m.Data, &req) != nil {
				return
			}
			term, ok := s.b.Renew(hello.Name, req.Lease, time.Duration(req.TermMS)*time.Millisecond)
			reply := msg.Encode(&Renewed{
				Req: req.Req, Lease: req.Lease, OK: ok, TermMS: term.Milliseconds(),
			})
			if c.Send(msg.Message{Tag: TagRenewed, Data: reply}) != nil {
				return
			}
		case TagRelease:
			var r Release
			if msg.Decode(m.Data, &r) != nil {
				return
			}
			s.b.Release(hello.Name, r.Lease)
		case TagStatsReq:
			var req Req
			if msg.Decode(m.Data, &req) != nil {
				return
			}
			st := s.b.Stats()
			reply := msg.Encode(&StatsMsg{
				Req: req.Req, Capacity: st.Capacity, Free: st.Free, Leased: st.Leased,
				Grants: st.Grants, Renews: st.Renews, Expiries: st.Expiries,
				Releases: st.Releases, Waits: st.Waits, Members: memberList(st.Members),
			})
			if c.Send(msg.Message{Tag: TagStats, Data: reply}) != nil {
				return
			}
		case TagFleetBye:
			return
		default:
			return // unknown tag: misbehaving peer, drop
		}
	}
}

// acquire runs one blocking acquire and replies with its grant.
func (s *Server) acquire(ctx context.Context, c msg.Conn, replica string, req AcquireReq) {
	g, err := s.b.Acquire(ctx, replica, req.Want, time.Duration(req.TermMS)*time.Millisecond)
	reply := Grant{Req: req.Req}
	if err != nil {
		reply.Err = err.Error()
	} else {
		reply.Lease = g.ID
		reply.Slots = len(g.Units)
		reply.TermMS = g.Term.Milliseconds()
		reply.Units = make([]string, len(g.Units))
		for i, u := range g.Units {
			reply.Units[i] = string(u)
		}
	}
	if c.Send(msg.Message{Tag: TagGrant, Data: msg.Encode(&reply)}) != nil && err == nil {
		// The replica is gone before it ever learned of the lease; give
		// the units back rather than parking them for a full term.
		s.b.Release(replica, g.ID)
	}
}

// Close stops the sweeper, severs every connection and waits for
// handlers (and their pending acquires) to finish. Leases survive in
// the broker — expiry, not disconnection, is what frees a replica's
// slots.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.sweepStop)
	for c, cancel := range s.conns {
		cancel()
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
