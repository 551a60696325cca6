package fleetd

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nowrender/internal/msg"
)

// Leaser is a source of worker-capacity leases: the seam internal/service
// renders through, so a replica's private pool and a ReplicaPool drawing
// on the broker are interchangeable.
type Leaser interface {
	// Acquire blocks until up to n slots are granted (n <= 0 asks for
	// the whole pool) or ctx ends.
	Acquire(ctx context.Context, n int) (Lease, error)
	// Stats snapshots the capacity this leaser draws from.
	Stats() PoolStats
}

// Lease is worker capacity granted to one farm run.
type Lease interface {
	// Granted is the slot count the run must size itself to.
	Granted() int
	// Return gives the capacity back exactly once; further calls are
	// no-ops.
	Return()
}

// PoolStats snapshots the capacity a Leaser draws from.
type PoolStats struct {
	// Capacity is the worker-slot capacity (< 0 = unlimited); Leased is
	// the number of slots currently out on leases.
	Capacity, Leased int
	// Leases counts leases ever granted; Waits counts Acquire calls that
	// had to block for capacity.
	Leases, Waits uint64
	// Renews and Expired count lease renewals and expiries: zero for a
	// private pool, whose leases have no term; the cluster totals for a
	// ReplicaPool.
	Renews, Expired uint64
}

// ClientConfig tunes a ReplicaPool.
type ClientConfig struct {
	// Replica names this `now serve` instance to the broker; lease
	// ownership is checked against it.
	Replica string
	// Dial opens a connection to the broker. The client redials through
	// it after connection loss or a broker restart.
	Dial func() (msg.Conn, error)
	// Term is the lease term to request; 0 uses the broker's default.
	Term time.Duration
	// RenewEvery is the renewal cadence; 0 renews at a third of the
	// effective term.
	RenewEvery time.Duration
}

// ReplicaPool is a replica's view of the shared fleet: a Leaser whose
// slots come from broker leases instead of a private pool. Leases are
// renewed in the background while held; a lease the broker reports gone
// (expired during a partition, or voided by a broker restart) is marked
// orphaned — the in-flight run it backs finishes on the slots it already
// sized itself to, a bounded, documented over-subscription, while the
// broker is free to re-grant the underlying units.
type ReplicaPool struct {
	cfg ClientConfig

	mu        sync.Mutex
	conn      msg.Conn
	epoch     int64
	haveEpoch bool
	brokerMS  int64 // broker default term, from the welcome
	nextReq   uint64
	pending   map[uint64]chan msg.Message
	held      map[uint64]*RemoteGrant
	closed    bool
	lastStats PoolStats
	acquires  uint64
	orphaned  uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// errConnLost marks a roundtrip severed mid-flight.
var errConnLost = fmt.Errorf("fleetd: broker connection lost")

// NewReplicaPool returns a connected-on-demand replica pool. The
// background renewal loop starts immediately; Close stops it.
func NewReplicaPool(cfg ClientConfig) (*ReplicaPool, error) {
	if cfg.Replica == "" {
		return nil, fmt.Errorf("fleetd: replica pool needs a replica name")
	}
	if cfg.Dial == nil {
		return nil, fmt.Errorf("fleetd: replica pool needs a dial function")
	}
	p := &ReplicaPool{
		cfg:     cfg,
		pending: make(map[uint64]chan msg.Message),
		held:    make(map[uint64]*RemoteGrant),
		stop:    make(chan struct{}),
	}
	p.wg.Add(1)
	go p.renewLoop()
	return p, nil
}

// ensureConnLocked returns a live connection, dialing and handshaking
// if needed. Callers hold p.mu.
func (p *ReplicaPool) ensureConnLocked() (msg.Conn, error) {
	if p.closed {
		return nil, fmt.Errorf("fleetd: replica pool closed")
	}
	if p.conn != nil {
		return p.conn, nil
	}
	c, err := p.cfg.Dial()
	if err != nil {
		return nil, err
	}
	hello := msg.Encode(&Hello{Name: p.cfg.Replica})
	if err := c.Send(msg.Message{Tag: TagHello, Data: hello}); err != nil {
		c.Close()
		return nil, err
	}
	m, err := c.Recv()
	if err != nil || m.Tag != TagWelcome {
		c.Close()
		return nil, fmt.Errorf("fleetd: no welcome from broker")
	}
	var w Welcome
	if err := msg.Decode(m.Data, &w); err != nil {
		c.Close()
		return nil, err
	}
	if p.haveEpoch && w.Epoch != p.epoch {
		// Broker restarted: every lease we hold predates its ledger.
		// Orphan them — the new broker may re-grant those units, and our
		// in-flight runs drain on what they already hold.
		for id, g := range p.held {
			g.orphan()
			delete(p.held, id)
			p.orphaned++
		}
	}
	p.epoch = w.Epoch
	p.haveEpoch = true
	p.brokerMS = w.TermMS
	p.conn = c
	p.wg.Add(1)
	go p.reader(c)
	return c, nil
}

// reader pumps one connection's replies into the pending map until the
// connection dies.
func (p *ReplicaPool) reader(c msg.Conn) {
	defer p.wg.Done()
	for {
		m, err := c.Recv()
		if err != nil {
			p.mu.Lock()
			if p.conn == c {
				p.conn = nil
			}
			// Fail every in-flight roundtrip on this conn.
			for req, ch := range p.pending {
				close(ch)
				delete(p.pending, req)
			}
			p.mu.Unlock()
			return
		}
		var reply msg.Layout
		var req *uint64
		switch m.Tag {
		case TagGrant:
			g := new(Grant)
			reply, req = g, &g.Req
		case TagRenewed:
			r := new(Renewed)
			reply, req = r, &r.Req
		case TagStats:
			st := new(StatsMsg)
			reply, req = st, &st.Req
		}
		if reply == nil || msg.Decode(m.Data, reply) != nil {
			continue
		}
		p.mu.Lock()
		ch, waiting := p.pending[*req]
		delete(p.pending, *req)
		p.mu.Unlock()
		if waiting {
			ch <- m
		}
	}
}

// roundtrip sends one request and waits for its reply.
func (p *ReplicaPool) roundtrip(ctx context.Context, tag int, encode func(req uint64) []byte) (msg.Message, error) {
	p.mu.Lock()
	c, err := p.ensureConnLocked()
	if err != nil {
		p.mu.Unlock()
		return msg.Message{}, err
	}
	p.nextReq++
	req := p.nextReq
	ch := make(chan msg.Message, 1)
	p.pending[req] = ch
	p.mu.Unlock()

	if err := c.Send(msg.Message{Tag: tag, Data: encode(req)}); err != nil {
		p.mu.Lock()
		delete(p.pending, req)
		p.mu.Unlock()
		return msg.Message{}, err
	}
	select {
	case m, ok := <-ch:
		if !ok {
			return msg.Message{}, errConnLost
		}
		return m, nil
	case <-ctx.Done():
		p.mu.Lock()
		delete(p.pending, req)
		p.mu.Unlock()
		return msg.Message{}, ctx.Err()
	}
}

// Acquire implements Leaser: it blocks — on the broker's ledger, and
// across reconnects — until the broker grants up to n slots or ctx ends.
// The grant renews itself in the background until Return.
func (p *ReplicaPool) Acquire(ctx context.Context, n int) (Lease, error) {
	backoff := 20 * time.Millisecond
	for {
		m, err := p.roundtrip(ctx, TagAcquire, func(req uint64) []byte {
			return msg.Encode(&AcquireReq{
				Req: req, Want: n, TermMS: p.cfg.Term.Milliseconds(),
			})
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil, fmt.Errorf("fleetd: replica pool closed")
			}
			// Connection trouble (broker restarting, network blip):
			// retry for as long as the job's context lets us.
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		var g Grant
		if err := msg.Decode(m.Data, &g); err != nil {
			return nil, err
		}
		if g.Err != "" {
			return nil, fmt.Errorf("fleetd: acquire refused: %s", g.Err)
		}
		rg := &RemoteGrant{pool: p, id: g.Lease, slots: g.Slots, units: g.Units}
		p.mu.Lock()
		p.held[g.Lease] = rg
		p.acquires++
		p.mu.Unlock()
		return rg, nil
	}
}

// renewLoop renews every held lease on a cadence of a third of the
// effective term, dropping leases the broker no longer honours.
func (p *ReplicaPool) renewLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-time.After(p.renewInterval()):
		case <-p.stop:
			return
		}
		p.mu.Lock()
		ids := make([]uint64, 0, len(p.held))
		for id := range p.held {
			ids = append(ids, id)
		}
		p.mu.Unlock()
		for _, id := range ids {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			m, err := p.roundtrip(ctx, TagRenew, func(req uint64) []byte {
				return msg.Encode(&RenewReq{
					Req: req, Lease: id, TermMS: p.cfg.Term.Milliseconds(),
				})
			})
			cancel()
			if err != nil {
				// Unreachable broker: leases may expire out from under
				// us; reconnection (and epoch comparison) happens on the
				// next roundtrip.
				continue
			}
			var r Renewed
			if msg.Decode(m.Data, &r) != nil || r.Lease != id {
				continue
			}
			if !r.OK {
				p.mu.Lock()
				if g, ok := p.held[id]; ok {
					g.orphan()
					delete(p.held, id)
					p.orphaned++
				}
				p.mu.Unlock()
			}
		}
	}
}

// renewInterval is a third of the effective lease term, floored so a
// tight test term still renews in time.
func (p *ReplicaPool) renewInterval() time.Duration {
	if p.cfg.RenewEvery > 0 {
		return p.cfg.RenewEvery
	}
	term := p.cfg.Term
	if term <= 0 {
		p.mu.Lock()
		if p.brokerMS > 0 {
			term = time.Duration(p.brokerMS) * time.Millisecond
		} else {
			term = DefaultTerm
		}
		p.mu.Unlock()
	}
	iv := term / 3
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	return iv
}

// Stats implements Leaser with the broker's cluster-wide view: capacity
// and leased slots across every replica, grant/renew/expiry totals. When
// the broker is unreachable the last good snapshot is returned, so a
// metrics scrape never blocks on a dead broker.
func (p *ReplicaPool) Stats() PoolStats {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := p.roundtrip(ctx, TagStatsReq, func(req uint64) []byte { return msg.Encode(&Req{req}) })
	if err != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.lastStats
	}
	var s StatsMsg
	if err := msg.Decode(m.Data, &s); err != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.lastStats
	}
	st := PoolStats{
		Capacity: s.Capacity,
		Leased:   s.Leased,
		Leases:   s.Grants,
		Waits:    s.Waits,
		Renews:   s.Renews,
		Expired:  s.Expiries,
	}
	p.mu.Lock()
	p.lastStats = st
	p.mu.Unlock()
	return st
}

// Held reports the lease ids this replica currently holds (tests).
func (p *ReplicaPool) Held() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint64, 0, len(p.held))
	for id := range p.held {
		out = append(out, id)
	}
	return out
}

// Orphaned counts leases the broker stopped honouring (expired during a
// partition or voided by a broker restart).
func (p *ReplicaPool) Orphaned() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.orphaned
}

// Close releases every held lease, says goodbye and disconnects.
func (p *ReplicaPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.stop)
	held := make([]*RemoteGrant, 0, len(p.held))
	for _, g := range p.held {
		held = append(held, g)
	}
	c := p.conn
	p.mu.Unlock()
	for _, g := range held {
		g.Return()
	}
	if c != nil {
		_ = c.Send(msg.Message{Tag: TagFleetBye, Data: msg.Encode(&Req{})})
		c.Close()
	}
	p.wg.Wait()
}

// Abandon simulates a replica crash for the failover suite: the
// connection drops and renewals stop with every lease still held, so
// the broker frees the slots only when their terms expire — exactly
// what a kill -9'd `now serve` looks like from the broker's side.
func (p *ReplicaPool) Abandon() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.stop)
	c := p.conn
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
	p.wg.Wait()
}

// RemoteGrant is one broker lease held by this replica; it implements
// Lease.
type RemoteGrant struct {
	pool  *ReplicaPool
	id    uint64
	slots int
	units []string

	mu       sync.Mutex
	done     bool
	orphaned bool
}

// Granted implements Lease.
func (g *RemoteGrant) Granted() int { return g.slots }

// Lease returns the broker's lease id.
func (g *RemoteGrant) Lease() uint64 { return g.id }

// Units returns the granted slot-unit names.
func (g *RemoteGrant) Units() []string { return g.units }

// orphan marks the grant as no longer broker-backed; Return becomes a
// local no-op.
func (g *RemoteGrant) orphan() {
	g.mu.Lock()
	g.orphaned = true
	g.mu.Unlock()
}

// Return releases the lease back to the broker. Idempotent; a lease the
// broker already dropped is released locally only.
func (g *RemoteGrant) Return() {
	g.mu.Lock()
	if g.done {
		g.mu.Unlock()
		return
	}
	g.done = true
	orphaned := g.orphaned
	g.mu.Unlock()

	p := g.pool
	p.mu.Lock()
	delete(p.held, g.id)
	c := p.conn
	p.mu.Unlock()
	if !orphaned && c != nil {
		_ = c.Send(msg.Message{Tag: TagRelease, Data: msg.Encode(&Release{g.id})})
	}
}

// Abandon drops the grant without releasing it (tests: the expiry
// path). The broker frees the units when the term runs out.
func (g *RemoteGrant) Abandon() {
	g.mu.Lock()
	g.done = true
	g.mu.Unlock()
	p := g.pool
	p.mu.Lock()
	delete(p.held, g.id)
	p.mu.Unlock()
}
