package objspace

import (
	"sync"

	"nowrender/internal/geom"
	"nowrender/internal/msg"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// Remote mode runs the same sweep the in-process router performs, but
// with each shard behind a real msg.Conn: a ray enters at the first slab
// it crosses, hops owner-to-owner along neighbor links (slabs passing the
// clip test form one contiguous run, so the next hop is always the
// adjacent neighbor), and the settled state routes back to the client.
// The in-process router and the remote fleet share the codec and the
// termination rule, so their pixels — and the replicated path's — are
// byte-identical.

// Owner serves one shard of a cluster over connections to the client and
// its sweep neighbors. Run Serve on its own goroutine; it returns when
// the connections close.
type Owner struct {
	c   *Cluster
	idx int
	// client carries incoming entry rays and outgoing results; prev/next
	// carry shard-to-shard forwards (nil at the fleet's ends).
	client, prev, next msg.Conn

	stamp uint64
	mail  []uint64
}

// NewOwner wraps shard idx of c behind its three links.
func NewOwner(c *Cluster, idx int, client, prev, next msg.Conn) *Owner {
	return &Owner{
		c: c, idx: idx,
		client: client, prev: prev, next: next,
		mail: make([]uint64, len(c.shard[idx].Objs)),
	}
}

// Serve processes rays until every link closes. Messages from all links
// funnel through one inbox, so the owner handles rays serially — its
// mailbox scratch needs no locking.
func (o *Owner) Serve() {
	inbox := make(chan msg.Message)
	var wg sync.WaitGroup
	for _, c := range []msg.Conn{o.client, o.prev, o.next} {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(c msg.Conn) {
			defer wg.Done()
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				inbox <- m
			}
		}(c)
	}
	go func() { wg.Wait(); close(inbox) }()
	for m := range inbox {
		if m.Tag != TagOSRay {
			continue
		}
		fs, err := DecodeForward(m.Data)
		if err != nil || int(fs.Shard) != o.idx {
			continue // malformed or misrouted: drop
		}
		o.handle(fs)
	}
}

// handle walks the owner's shard and either forwards the ray to the next
// neighbor or sends the settled result home.
func (o *Owner) handle(fs ForwardState) {
	s := o.c.shard[o.idx]
	iv, crossed := s.Bounds.IntersectRay(fs.Ray, fs.TMin, bestBound(&fs))
	if crossed {
		o.stamp++
		stamp := o.stamp
		s.Grid.Walk(fs.Ray, fs.TMin, fs.TMax, func(idx int, tEnter, tLeave float64) bool {
			for _, lid := range s.Grid.Items(idx) {
				if o.mail[lid] == stamp {
					continue
				}
				o.mail[lid] = stamp
				so := &s.Objs[lid]
				if h, ok := geom.Intersect(so.RO.Shape, fs.Ray, fs.TMin, bestBound(&fs)); ok {
					fs.Best, fs.BestObj, fs.Found = h, so.Global, true
				}
			}
			return !(fs.Found && fs.Best.T <= tLeave)
		})
	}
	settled := !crossed || (fs.Found && fs.Best.T <= iv.Max)
	if !settled {
		step := 1
		link := o.next
		if fs.Ray.Dir.Axis(o.c.part.Axis) < 0 {
			step, link = -1, o.prev
		}
		next := o.idx + step
		if link != nil && next >= 0 && next < len(o.c.shard) {
			if _, ok := o.c.shard[next].Bounds.IntersectRay(fs.Ray, fs.TMin, bestBound(&fs)); ok {
				fs.Shard = int32(next)
				data := EncodeForward(&fs)
				if o.c.stats != nil {
					o.c.stats.countForward(o.idx, len(data))
				}
				if link.Send(msg.Message{Tag: TagOSRay, Data: data}) == nil {
					return
				}
			}
		}
	}
	o.client.Send(msg.Message{Tag: TagOSResult, Data: EncodeForward(&fs)})
}

// bestBound returns the running upper bound for shape tests: the settled
// hit's parameter, or the query's tMax while nothing has hit yet.
func bestBound(fs *ForwardState) float64 {
	if fs.Found {
		return fs.Best.T
	}
	return fs.TMax
}

// Client is the frame owner's side of a remote fleet: it tests the
// replicated unbounded primitives, injects each ray at its entry shard,
// and blocks until the settled state returns. It implements
// trace.Intersector, so a worker built over it renders byte-identically
// to the in-process router. Queries are serialized by a mutex — the
// remote mode exists to exercise the protocol, not to win races.
type Client struct {
	c     *Cluster
	conns []msg.Conn

	mu      sync.Mutex
	seq     uint64
	results chan msg.Message
	closed  chan struct{}
}

// NewClient wires a client over one connection per shard owner and
// starts its result readers.
func NewClient(c *Cluster, conns []msg.Conn) *Client {
	cl := &Client{
		c: c, conns: conns,
		results: make(chan msg.Message, len(conns)),
		closed:  make(chan struct{}),
	}
	for _, conn := range conns {
		go func(conn msg.Conn) {
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				select {
				case cl.results <- m:
				case <-cl.closed:
					return
				}
			}
		}(conn)
	}
	return cl
}

// Close tears down the client's connections (and, through the shared
// pipe state, unblocks the owners).
func (cl *Client) Close() {
	close(cl.closed)
	for _, c := range cl.conns {
		c.Close()
	}
}

// NewWorker returns a rendering worker that resolves every intersection
// through the remote fleet.
func (cl *Client) NewWorker(obs trace.RayObserver) *trace.Worker {
	return cl.c.view.NewWorkerWith(obs, cl)
}

// Intersect implements trace.Intersector over the remote fleet.
func (cl *Client) Intersect(r vm.Ray, tMin, tMax float64) (geom.Hit, *scene.ResolvedObject, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	c := cl.c
	fs := ForwardState{
		Pixel: -1, Ray: r, TMin: tMin, TMax: tMax,
		Throughput: vm.Splat(1), BestObj: -1,
		Best: geom.Hit{T: tMax},
	}
	for _, id := range c.unbounded {
		ro := &c.objs[id]
		if h, ok := geom.Intersect(ro.Shape, r, tMin, bestBound(&fs)); ok {
			fs.Best, fs.BestObj, fs.Found = h, id, true
		}
	}
	// Entry shard: the first slab in sweep order the clipped ray crosses.
	n := len(c.shard)
	si, step := 0, 1
	if r.Dir.Axis(c.part.Axis) < 0 {
		si, step = n-1, -1
	}
	entry := -1
	for k := 0; k < n; k, si = k+1, si+step {
		if _, ok := c.shard[si].Bounds.IntersectRay(r, tMin, bestBound(&fs)); ok {
			entry = si
			break
		}
	}
	if entry < 0 {
		return finish(c, fs)
	}
	cl.seq++
	fs.Seq = cl.seq
	fs.Shard = int32(entry)
	if cl.conns[entry].Send(msg.Message{Tag: TagOSRay, Data: EncodeForward(&fs)}) != nil {
		return finish(c, fs)
	}
	for {
		select {
		case m := <-cl.results:
			if m.Tag != TagOSResult {
				continue
			}
			res, err := DecodeForward(m.Data)
			if err != nil || res.Seq != cl.seq {
				continue
			}
			return finish(c, res)
		case <-cl.closed:
			return finish(c, fs)
		}
	}
}

// finish maps a settled state to the intersector's return shape.
func finish(c *Cluster, fs ForwardState) (geom.Hit, *scene.ResolvedObject, bool) {
	if !fs.Found {
		return geom.Hit{}, nil, false
	}
	return fs.Best, &c.objs[fs.BestObj], true
}

// NewLocalFleet builds the full remote topology over in-process pipes —
// one owner goroutine per shard, neighbor links between adjacent shards —
// and returns the client. Close the client to stop the fleet.
func NewLocalFleet(c *Cluster) *Client {
	n := len(c.shard)
	clientSide := make([]msg.Conn, n)
	ownerClient := make([]msg.Conn, n)
	for i := 0; i < n; i++ {
		clientSide[i], ownerClient[i] = msg.Pipe(64)
	}
	prev := make([]msg.Conn, n)
	next := make([]msg.Conn, n)
	for i := 0; i+1 < n; i++ {
		next[i], prev[i+1] = msg.Pipe(64)
	}
	for i := 0; i < n; i++ {
		go NewOwner(c, i, ownerClient[i], prev[i], next[i]).Serve()
	}
	return NewClient(c, clientSide)
}
