package fleetd

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nowrender/internal/msg"
)

// pipeDial returns a dial function connecting in-process to the given
// server — the multi-replica harness's transport.
func pipeDial(s *Server) func() (msg.Conn, error) {
	return func() (msg.Conn, error) {
		a, b := msg.Pipe(64)
		if err := s.ServeConn(b); err != nil {
			a.Close()
			return nil, err
		}
		return a, nil
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicaPoolAcquireRenewRelease: two replicas share one broker
// over the wire protocol; leases are granted disjointly, renewed in the
// background, and released on Return.
func TestReplicaPoolAcquireRenewRelease(t *testing.T) {
	b := NewBroker(BrokerConfig{Capacity: 4, Term: 60 * time.Millisecond})
	srv := NewServer(b, 10*time.Millisecond)
	defer srv.Close()

	mk := func(name string) *ReplicaPool {
		p, err := NewReplicaPool(ClientConfig{
			Replica: name, Dial: pipeDial(srv),
			Term: 60 * time.Millisecond, RenewEvery: 15 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := mk("replica-a"), mk("replica-b")
	defer pa.Close()
	defer pb.Close()

	ga, err := pa.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := pb.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Granted() != 2 || gb.Granted() != 2 {
		t.Fatalf("granted %d/%d, want 2/2", ga.Granted(), gb.Granted())
	}
	// Disjoint units — the single-leaseholder invariant, visible end to
	// end through the protocol.
	seen := map[string]bool{}
	for _, u := range append(ga.(*RemoteGrant).Units(), gb.(*RemoteGrant).Units()...) {
		if seen[u] {
			t.Fatalf("unit %s granted to both replicas", u)
		}
		seen[u] = true
	}
	checkInvariant(t, b)

	// Hold across several terms: background renewal keeps both alive.
	time.Sleep(150 * time.Millisecond)
	if st := b.Stats(); st.Leased != 4 || st.Expiries != 0 {
		t.Fatalf("stats after holding = %+v (renewal failed)", st)
	}
	if st := pa.Stats(); st.Renews == 0 || st.Capacity != 4 {
		t.Fatalf("replica-view stats = %+v", st)
	}

	ga.Return()
	gb.Return()
	waitFor(t, 2*time.Second, "releases to land", func() bool {
		return b.Stats().Free == 4
	})
	checkInvariant(t, b)
}

// TestReplicaCrashFailsOverWithinOneTerm is the protocol-level failover
// half of the e2e suite: replica A dies holding the whole pool; its
// leases expire unrenewed, and a blocked replica B inherits the workers
// within roughly one lease term.
func TestReplicaCrashFailsOverWithinOneTerm(t *testing.T) {
	term := 60 * time.Millisecond
	b := NewBroker(BrokerConfig{Capacity: 2, Term: term})
	srv := NewServer(b, 10*time.Millisecond)
	defer srv.Close()

	pa, err := NewReplicaPool(ClientConfig{
		Replica: "replica-a", Dial: pipeDial(srv), Term: term,
		RenewEvery: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	pb, err := NewReplicaPool(ClientConfig{
		Replica: "replica-b", Dial: pipeDial(srv), Term: term,
		RenewEvery: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()

	got := make(chan Lease, 1)
	go func() {
		g, err := pb.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
			return
		}
		got <- g
	}()
	select {
	case <-got:
		t.Fatal("acquire granted while replica-a holds the pool")
	case <-time.After(30 * time.Millisecond):
	}

	// Replica A crashes: conn drops, renewals stop, leases still held.
	crash := time.Now()
	pa.Abandon()
	select {
	case g := <-got:
		elapsed := time.Since(crash)
		if g.Granted() != 2 {
			t.Fatalf("survivor granted %d slots, want 2", g.Granted())
		}
		// Within one term plus renewal/sweep slack — not, say, ever.
		if elapsed > 3*term {
			t.Fatalf("failover took %v, want about one %v term", elapsed, term)
		}
		g.Return()
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never inherited the crashed replica's workers")
	}
	checkInvariant(t, b)
	if st := b.Stats(); st.Expiries == 0 {
		t.Fatalf("stats = %+v: failover happened without expiries?", st)
	}
}

// TestBrokerRestartOrphansAndReacquires: a broker restart voids held
// leases (new epoch). The replica notices on reconnect, orphans its
// grants — in-flight runs finish on slots they already sized to — and
// fresh acquires land on the new broker.
func TestBrokerRestartOrphansAndReacquires(t *testing.T) {
	term := 60 * time.Millisecond
	b1 := NewBroker(BrokerConfig{Capacity: 2, Term: term, Epoch: 101})
	srv1 := NewServer(b1, 10*time.Millisecond)

	var target atomic.Pointer[Server]
	target.Store(srv1)
	dial := func() (msg.Conn, error) {
		a, b := msg.Pipe(64)
		if err := target.Load().ServeConn(b); err != nil {
			a.Close()
			return nil, err
		}
		return a, nil
	}

	p, err := NewReplicaPool(ClientConfig{
		Replica: "replica-a", Dial: dial, Term: term,
		RenewEvery: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g1, err := p.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Held()) != 1 {
		t.Fatalf("held = %v, want 1 lease", p.Held())
	}

	// Broker restarts: all conns die, the ledger is gone, new epoch.
	srv1.Close()
	b2 := NewBroker(BrokerConfig{Capacity: 2, Term: term, Epoch: 202})
	srv2 := NewServer(b2, 10*time.Millisecond)
	defer srv2.Close()
	target.Store(srv2)

	// The next acquire reconnects, sees the epoch change, orphans g1,
	// and wins a fresh lease from the new ledger — proving the old one
	// no longer pins capacity.
	g2, err := p.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Granted() != 2 {
		t.Fatalf("post-restart grant = %d slots, want 2", g2.Granted())
	}
	if p.Orphaned() != 1 {
		t.Fatalf("orphaned = %d, want 1", p.Orphaned())
	}
	// Returning the orphaned grant must not disturb the new ledger.
	g1.Return()
	checkInvariant(t, b2)
	if st := b2.Stats(); st.Leased != 2 {
		t.Fatalf("new broker stats = %+v", st)
	}
	g2.Return()
}

// TestMemberSessionReregistersAfterRestart: a worker member's
// registration survives a broker restart via the redial loop.
func TestMemberSessionReregistersAfterRestart(t *testing.T) {
	b1 := NewBroker(BrokerConfig{Capacity: 0, Term: time.Second, Epoch: 1})
	srv1 := NewServer(b1, 0)

	var target atomic.Pointer[Server]
	target.Store(srv1)
	dial := func() (msg.Conn, error) {
		a, b := msg.Pipe(64)
		if err := target.Load().ServeConn(b); err != nil {
			a.Close()
			return nil, err
		}
		return a, nil
	}

	m, err := JoinFleet(dial, "ws01", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := b1.Stats(); st.Members["ws01"] != 3 {
		t.Fatalf("member not registered: %+v", st)
	}

	srv1.Close()
	b2 := NewBroker(BrokerConfig{Capacity: 0, Term: time.Second, Epoch: 2})
	srv2 := NewServer(b2, 0)
	defer srv2.Close()
	target.Store(srv2)

	waitFor(t, 5*time.Second, "member to re-register", func() bool {
		return b2.Stats().Members["ws01"] == 3
	})
	checkInvariant(t, b2)
}

// TestLeaseChurnSoakRace is the seeded chaos soak of the multi-master
// protocol: three replicas hammer one broker with concurrent acquires,
// renews, releases and simulated crashes (abandoned grants that must
// expire), while a checker continuously asserts the single-leaseholder
// invariant. Run under -race in CI.
func TestLeaseChurnSoakRace(t *testing.T) {
	const (
		seed     = 7
		replicas = 3
		capacity = 5
		duration = 600 * time.Millisecond
	)
	term := 40 * time.Millisecond
	b := NewBroker(BrokerConfig{Capacity: capacity, Term: term})
	srv := NewServer(b, 5*time.Millisecond)
	defer srv.Close()

	stop := make(chan struct{})
	var checkerErr atomic.Value
	var wg sync.WaitGroup

	// Invariant checker: the ledger must be consistent at every instant,
	// not just at quiescence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.CheckInvariant(); err != nil {
				checkerErr.Store(err)
				return
			}
			if st := b.Stats(); st.Leased+st.Free > capacity {
				checkerErr.Store(errOverCommit{st.Leased, st.Free, capacity})
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var abandons, grants atomic.Uint64
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(r)))
			name := []string{"replica-a", "replica-b", "replica-c"}[r]
			p, err := NewReplicaPool(ClientConfig{
				Replica: name, Dial: pipeDial(srv), Term: term,
				RenewEvery: 10 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer p.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				g, err := p.Acquire(ctx, 1+rng.Intn(2))
				cancel()
				if err != nil {
					continue // pool exhausted under churn; try again
				}
				grants.Add(1)
				time.Sleep(time.Duration(rng.Intn(15)) * time.Millisecond)
				if rng.Intn(4) == 0 {
					// Simulated crash: never released, must expire.
					g.(*RemoteGrant).Abandon()
					abandons.Add(1)
				} else {
					g.Return()
				}
			}
		}(r)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if err, _ := checkerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if grants.Load() == 0 {
		t.Fatal("soak made no progress: no grants at all")
	}
	// Abandoned leases must all have expired (or be expirable): drain
	// and verify the ledger returns to fully free.
	waitFor(t, 5*time.Second, "abandoned leases to expire", func() bool {
		b.Expire()
		st := b.Stats()
		return st.Leased == 0 && st.Free == capacity
	})
	checkInvariant(t, b)
	st := b.Stats()
	if abandons.Load() > 0 && st.Expiries == 0 {
		t.Fatalf("%d abandons but no expiries: %+v", abandons.Load(), st)
	}
	t.Logf("soak: %d grants, %d abandons, stats %+v", grants.Load(), abandons.Load(), st)
}

// errOverCommit formats the soak's capacity-accounting violation.
type errOverCommit [3]int

func (e errOverCommit) Error() string {
	return "fleetd: leased " + itoa(e[0]) + " + free " + itoa(e[1]) + " exceeds capacity " + itoa(e[2])
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
