package service

import (
	"container/heap"
	"context"
	"math"
	"sync"

	"nowrender/internal/fleetd"
)

// jobQueue holds the queued jobs, one heap per tenant ordered by before.
// The service mutex guards it; admission control is Submit's.
type jobQueue struct {
	heaps map[string]jobHeap
	n     int // queued jobs across tenants
}

func (q *jobQueue) push(j *job) {
	if q.heaps == nil {
		q.heaps = make(map[string]jobHeap)
	}
	h := q.heaps[j.spec.Tenant]
	heap.Push(&h, j)
	q.heaps[j.spec.Tenant] = h
	q.n++
}

// pop dequeues the tenant's best job.
func (q *jobQueue) pop(tenant string) *job {
	h := q.heaps[tenant]
	j := heap.Pop(&h).(*job)
	q.shrunk(tenant, h)
	return j
}

// remove takes a queued job off the queue (a cancellation).
func (q *jobQueue) remove(j *job) {
	h := q.heaps[j.spec.Tenant]
	heap.Remove(&h, j.qi)
	q.shrunk(j.spec.Tenant, h)
}

func (q *jobQueue) shrunk(tenant string, h jobHeap) {
	q.n--
	if len(h) == 0 {
		delete(q.heaps, tenant)
	} else {
		q.heaps[tenant] = h
	}
}

// depths is every tenant's queued-job count; tenants with nothing queued
// are absent.
func (q *jobQueue) depths() map[string]int {
	out := make(map[string]int, len(q.heaps))
	for t, h := range q.heaps {
		out[t] = len(h)
	}
	return out
}

// before orders jobs within a tenant, and across tenants under the
// priority picker: higher priority first, then submission order.
func before(a, b *job) bool {
	if a.spec.Priority != b.spec.Priority {
		return a.spec.Priority > b.spec.Priority
	}
	return a.seq < b.seq
}

// pickPriority dequeues the job that comes before every other tenant's
// head — one global priority order, as if all tenants shared one heap.
func (q *jobQueue) pickPriority() *job {
	var best *job
	for _, h := range q.heaps {
		if best == nil || before(h[0], best) {
			best = h[0]
		}
	}
	if best == nil {
		return nil
	}
	return q.pop(best.spec.Tenant)
}

// fairShare is weighted fair queuing across tenants by stride
// scheduling: dispatching a job of n frames advances its tenant's
// virtual time by n/weight, and the tenant with the lowest virtual time
// runs next, so a flood from one tenant cannot starve another. A tenant
// arriving, or returning from idle, starts at the global virtual time:
// it competes from now on and claims no refund for its idle past.
type fairShare struct {
	weights map[string]float64 // absent or <= 0 reads as 1
	vtime   map[string]float64
	global  float64
}

// pick dequeues the head of the tenant with the lowest virtual time,
// submission order breaking ties.
func (f *fairShare) pick(q *jobQueue) *job {
	var best *job
	bestVt := math.Inf(1)
	for t, h := range q.heaps {
		vt, seen := f.vtime[t]
		if !seen || vt < f.global {
			vt = f.global
			f.vtime[t] = vt
		}
		if vt < bestVt || (vt == bestVt && h[0].seq < best.seq) {
			best, bestVt = h[0], vt
		}
	}
	if best == nil {
		return nil
	}
	t := best.spec.Tenant
	w := f.weights[t]
	if w <= 0 {
		w = 1
	}
	f.global = bestVt
	f.vtime[t] = bestVt + float64(len(best.frames))/w
	return q.pop(t)
}

// jobHeap is one tenant's queued jobs; each job keeps its slot in qi.
type jobHeap []*job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(a, b int) bool { return before(h[a], h[b]) }
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].qi, h[b].qi = a, b
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.qi = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return j
}

// pool is the worker-slot pot a replica leases from when no broker is
// configured. A lease is capacity accounting, not worker pinning: the
// farm drivers still start their own workers per run, and the pool
// bounds how many run at once. Capacity <= 0 grants every request in
// full at once; otherwise a request is clamped to the capacity and waits
// until that many slots are free. mu is the service mutex.
type pool struct {
	mu            *sync.Mutex
	capacity      int
	leased        int
	leases, waits uint64
	freed         chan struct{} // closed and replaced when a lease returns
}

func newPool(mu *sync.Mutex, capacity int) *pool {
	return &pool{mu: mu, capacity: capacity, freed: make(chan struct{})}
}

// Acquire implements fleetd.Leaser.
func (p *pool) Acquire(ctx context.Context, n int) (fleetd.Lease, error) {
	p.mu.Lock()
	grant := n
	if p.capacity > 0 && (n <= 0 || n > p.capacity) {
		grant = p.capacity
	} else if grant <= 0 {
		grant = 1
	}
	for waited := false; p.capacity > 0 && p.leased+grant > p.capacity; waited = true {
		if !waited {
			p.waits++
		}
		ch := p.freed
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.mu.Lock()
	}
	p.leased += grant
	p.leases++
	p.mu.Unlock()
	return &poolLease{pool: p, slots: grant}, nil
}

// Stats implements fleetd.Leaser.
func (p *pool) Stats() fleetd.PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := fleetd.PoolStats{Capacity: p.capacity, Leased: p.leased, Leases: p.leases, Waits: p.waits}
	if st.Capacity <= 0 {
		st.Capacity = -1
	}
	return st
}

// poolLease is one grant from a pool.
type poolLease struct {
	pool     *pool
	slots    int
	returned bool
}

func (l *poolLease) Granted() int { return l.slots }

// Return gives the slots back and wakes waiting Acquires. Idempotent.
func (l *poolLease) Return() {
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if !l.returned {
		l.returned = true
		p.leased -= l.slots
		close(p.freed)
		p.freed = make(chan struct{})
	}
}
