package service

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/fleetd"
)

// queued makes a one-frame job as the queue sees it.
func queued(tenant string, priority, seq int) *job {
	return &job{seq: seq, spec: JobSpec{Tenant: tenant, Priority: priority}, frames: make([]*fb.Framebuffer, 1)}
}

// playPicker runs a script against an empty queue: a token "t" or "tN"
// queues a one-frame job for tenant t at priority N (sequence numbers
// count up from 0), "." dispatches one job with pick. It returns the
// dispatched sequence numbers, -1 where pick found nothing.
func playPicker(script string, pick func(*jobQueue) *job) []int {
	var q jobQueue
	var got []int
	seq := 0
	for _, tok := range strings.Fields(script) {
		if tok == "." {
			if j := pick(&q); j != nil {
				got = append(got, j.seq)
			} else {
				got = append(got, -1)
			}
			continue
		}
		tenant := strings.TrimRight(tok, "0123456789")
		priority, _ := strconv.Atoi(tok[len(tenant):])
		q.push(queued(tenant, priority, seq))
		seq++
	}
	return got
}

// TestPickers holds both dispatch orders exactly: priority across
// tenants as one global heap would give it, and weighted fair queuing's
// interleaving, weights and refusal to refund an idle tenant.
func TestPickers(t *testing.T) {
	priority := (*jobQueue).pickPriority
	fair := func(weights map[string]float64) func(*jobQueue) *job {
		return (&fairShare{weights: weights, vtime: map[string]float64{}}).pick
	}
	for _, tc := range []struct {
		name   string
		pick   func(*jobQueue) *job
		script string
		want   []int
	}{
		// Within a tenant: priority first, then submission order.
		{"priority_within_tenant", priority, "a a5 a a5 . . . . .", []int{1, 3, 0, 2, -1}},
		// Across tenants the same order, as before the queue was split
		// per tenant.
		{"priority_across_tenants", priority, "a b5 a5 b . . . .", []int{1, 2, 0, 3}},
		// b arrives mid-flood, joins at the global clock and alternates
		// with a instead of waiting behind the flood.
		{"fair_flood_interleave", fair(nil), "a a a a a a . b b . . . . . . . .",
			[]int{0, 6, 1, 7, 2, 3, 4, 5, -1}},
		// 3:1 weights give h six of the first eight dispatches.
		{"fair_weights", fair(map[string]float64{"h": 3, "l": 1}),
			strings.Repeat("h ", 12) + strings.Repeat("l ", 12) + strings.Repeat(". ", 8),
			[]int{0, 12, 1, 2, 3, 13, 4, 5}},
		// b idles through ten of a's dispatches, then rejoins at the
		// global clock: it alternates with a rather than taking every
		// slot on credit for its idle past.
		{"fair_idle_tenant_no_refund", fair(nil),
			"b . " + strings.Repeat("a . ", 10) + "a b a b a b a b . . . .",
			[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 11, 14, 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := playPicker(tc.script, tc.pick); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("dispatch order %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRemoveCancelsQueuedItem: remove takes a job out of the middle of
// its tenant's heap, and the heap still pops in order.
func TestRemoveCancelsQueuedItem(t *testing.T) {
	var q jobQueue
	jobs := []*job{queued("t", 0, 0), queued("t", 0, 1), queued("t", 0, 2)}
	for _, j := range jobs {
		q.push(j)
	}
	q.remove(jobs[1])
	if q.n != 2 {
		t.Fatalf("queued = %d after remove, want 2", q.n)
	}
	if a, b := q.pop("t"), q.pop("t"); a != jobs[0] || b != jobs[2] {
		t.Fatalf("popped seqs %d, %d; want 0, 2", a.seq, b.seq)
	}
	if q.n != 0 || len(q.heaps) != 0 {
		t.Fatalf("queue not empty: %d jobs, %d heaps", q.n, len(q.heaps))
	}
}

// TestQueueDepthsDropEmptyTenants: depths lists only tenants with
// queued jobs.
func TestQueueDepthsDropEmptyTenants(t *testing.T) {
	var q jobQueue
	for i, tn := range []string{"b", "a", "b"} {
		q.push(queued(tn, 0, i))
	}
	if d := q.depths(); !reflect.DeepEqual(d, map[string]int{"a": 1, "b": 2}) {
		t.Fatalf("depths = %v", d)
	}
	q.pop("a")
	if d := q.depths(); !reflect.DeepEqual(d, map[string]int{"b": 2}) {
		t.Fatalf("depths after draining a = %v", d)
	}
}

// TestQueueAdmissionControl: admitLocked refuses an unknown tenant, a
// tenant over its quota and a full queue, each with its own reason, and
// queues nothing it refuses.
func TestQueueAdmissionControl(t *testing.T) {
	s := New(Config{QueueCap: 3, MaxQueuedPerTenant: 2, Tenants: map[string]float64{"a": 1, "b": 1}})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, tc := range []struct {
		tenant, reason string
	}{
		{"c", RejectUnknownTenant},
		{"a", ""},
		{"a", ""},
		{"a", RejectTenantQuota},
		{"b", ""},
		{"b", RejectQueueFull},
	} {
		reason, err := s.admitLocked(queued(tc.tenant, 0, i))
		if reason != tc.reason || (err != nil) != (tc.reason != "") {
			t.Fatalf("job %d (tenant %s): reason %q, err %v; want reason %q", i, tc.tenant, reason, err, tc.reason)
		}
	}
	if d := s.queue.depths(); s.queue.n != 3 || !reflect.DeepEqual(d, map[string]int{"a": 2, "b": 1}) {
		t.Fatalf("queued %d, depths %v; want 3, a:2 b:1", s.queue.n, d)
	}
}

// TestSchedulerBoundsConcurrency: no more than MaxConcurrent jobs run at
// once, and a finished job's slot goes to the next queued one.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := s.Submit(JobSpec{Scene: "newton:30", W: 120 + 8*i, H: 160})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	running := func() (n int) {
		for _, id := range ids {
			if st, _ := s.JobStatus(id); st.State == StateRunning {
				n++
			}
		}
		return n
	}
	if n, d := running(), s.scrape().queueDepth; n != 2 || d != 3 {
		t.Fatalf("running %d, queued %d; want 2 and 3", n, d)
	}
	if _, err := s.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ids[0])
	if n, d := running(), s.scrape().queueDepth; n != 2 || d > 2 {
		t.Fatalf("after one finished: running %d, queued %d; want 2 and at most 2", n, d)
	}
}

// TestDefaultTenantCanonicalized: a job without a tenant belongs to
// "default", and so does an allow-list entry without a name.
func TestDefaultTenantCanonicalized(t *testing.T) {
	s := New(Config{Tenants: map[string]float64{"": 1}})
	defer s.Close()
	st, err := s.Submit(JobSpec{Scene: "quickstart", W: 16, H: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Tenant != "default" {
		t.Fatalf("tenant = %q, want \"default\"", st.Spec.Tenant)
	}
	waitDone(t, s, st.ID)
}

// TestUnlimitedPoolGrantsImmediately: the default pool never blocks and
// grants the full request.
func TestUnlimitedPoolGrantsImmediately(t *testing.T) {
	p := newPool(new(sync.Mutex), 0)
	l, err := p.Acquire(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.Granted() != 8 {
		t.Fatalf("slots = %d, want 8", l.Granted())
	}
	st := p.Stats()
	if st.Capacity != -1 || st.Leased != 8 || st.Leases != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Return()
	l.Return() // idempotent
	if got := p.Stats().Leased; got != 0 {
		t.Fatalf("leased after return = %d", got)
	}
}

// TestBoundedLeaseBlocksUntilReturn: a second lease waits for the first
// to return its slots.
func TestBoundedLeaseBlocksUntilReturn(t *testing.T) {
	p := newPool(new(sync.Mutex), 3)
	l1, err := p.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan fleetd.Lease, 1)
	go func() {
		l, err := p.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
		}
		granted <- l
	}()
	waitFor(t, "second lease to wait", func() bool { return p.Stats().Waits == 1 })
	select {
	case <-granted:
		t.Fatal("second lease granted while pool exhausted")
	default:
	}
	l1.Return()
	select {
	case l2 := <-granted:
		if l2.Granted() != 2 {
			t.Fatalf("second lease slots = %d, want 2", l2.Granted())
		}
		l2.Return()
	case <-time.After(5 * time.Second):
		t.Fatal("second lease never granted after return")
	}
	if w := p.Stats().Waits; w != 1 {
		t.Fatalf("waits = %d, want 1", w)
	}
}

// TestLeaseClampsOverAsk: asking for more than the pool holds grants
// the whole pool instead of deadlocking.
func TestLeaseClampsOverAsk(t *testing.T) {
	p := newPool(new(sync.Mutex), 2)
	l, err := p.Acquire(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Return()
	if l.Granted() != 2 {
		t.Fatalf("slots = %d, want clamp to 2", l.Granted())
	}
}

// TestLeaseHonoursContext: a blocked lease unblocks with the context's
// error.
func TestLeaseHonoursContext(t *testing.T) {
	p := newPool(new(sync.Mutex), 1)
	l1, err := p.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Return()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx, 1); err == nil {
		t.Fatal("lease succeeded on an exhausted pool with an expiring context")
	}
}
