package service

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"nowrender/internal/fleetd"
	"nowrender/internal/msg"
)

// brokerDial connects a replica in-process to the given fleet broker
// server — the multi-master harness's transport.
func brokerDial(s *fleetd.Server) func() (msg.Conn, error) {
	return func() (msg.Conn, error) {
		a, b := msg.Pipe(64)
		if err := s.ServeConn(b); err != nil {
			a.Close()
			return nil, err
		}
		return a, nil
	}
}

// newReplica builds a service drawing worker capacity from the broker
// behind dial instead of a private pool.
func newReplica(t *testing.T, id string, dial func() (msg.Conn, error), term time.Duration, cfg Config) (*Service, *fleetd.ReplicaPool) {
	t.Helper()
	rp, err := fleetd.NewReplicaPool(fleetd.ClientConfig{
		Replica: id, Dial: dial, Term: term, RenewEvery: term / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Leaser = rp
	cfg.ReplicaID = id
	return New(cfg), rp
}

// frames collects every frame of a finished job.
func frames(t *testing.T, s *Service, id string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for f := 0; f < n; f++ {
		img, _, err := s.frame(id, f)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		out[f] = img.Pix
	}
	return out
}

// TestMultiMasterFailover is the acceptance scenario: two `now serve`
// replicas share one worker fleet through a broker; replica A crashes
// mid-job while holding every worker; within about one lease term the
// workers rejoin the pool, the job resubmitted on replica B completes,
// and its frames are byte-identical to a single-replica render. At no
// point is a worker leased to both replicas.
func TestMultiMasterFailover(t *testing.T) {
	spec := JobSpec{Scene: "newton:6", W: 120, H: 120}

	// Single-replica reference render: the bytes failover must preserve.
	ref := New(Config{})
	st, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, ref, st.ID); st.State != StateDone {
		t.Fatalf("reference render: %s (%s)", st.State, st.Error)
	}
	want := frames(t, ref, st.ID, st.FramesTotal)
	ref.Close()

	// The shared fleet: one broker owning 3 worker slots (the virtual
	// NOW's machine count, so a replica's farm run wants all of them).
	term := 90 * time.Millisecond
	broker := fleetd.NewBroker(fleetd.BrokerConfig{Capacity: 3, Term: term})
	srv := fleetd.NewServer(broker)
	defer srv.Close()

	sA, rpA := newReplica(t, "replica-a", brokerDial(srv), term, Config{})
	sB, rpB := newReplica(t, "replica-b", brokerDial(srv), term, Config{})
	defer sB.Close()
	defer rpB.Close()

	// Job lands on replica A, which leases the whole fleet.
	if _, err := sA.Submit(spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(rpA.Held()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica-a never leased workers")
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Replica A crashes mid-job: renewals stop, nothing is released.
	crash := time.Now()
	rpA.Abandon()
	// The render may have beaten the crash. The job's state cannot tell:
	// renderRange returns its lease, and the broker may free the workers,
	// before the job is marked done. A lease Return drops from Held before
	// it sends the release, and after Abandon no release gets through, so
	// a lease still held now can only expire.
	if bst := broker.Stats(); len(rpA.Held()) == 0 || bst.Releases > 0 {
		t.Skipf("replica-a returned its lease before the crash landed (broker %+v); enlarge the spec", bst)
	}

	// The same job is resubmitted on the survivor. Its farm run blocks
	// acquiring workers until A's lease expires — the failover window.
	stB, err := sB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for broker.Stats().Replicas["replica-b"] == 0 {
		if time.Now().After(crash.Add(30 * time.Second)) {
			t.Fatal("survivor never inherited the crashed replica's workers")
		}
		if err := broker.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Expiry fires at most one term after A's last renewal, which was
	// before the crash; the bound below is term + sweep + slack.
	if elapsed := time.Since(crash); elapsed > 5*term {
		t.Errorf("workers rejoined after %v, want about one %v term", elapsed, term)
	}

	if stB = waitDone(t, sB, stB.ID); stB.State != StateDone {
		t.Fatalf("survivor render: %s (%s)", stB.State, stB.Error)
	}
	got := frames(t, sB, stB.ID, stB.FramesTotal)
	if len(got) != len(want) {
		t.Fatalf("frame count %d, want %d", len(got), len(want))
	}
	for f := range want {
		if !bytes.Equal(got[f], want[f]) {
			t.Fatalf("frame %d differs from the single-replica render", f)
		}
	}

	if err := broker.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	bst := broker.Stats()
	if bst.Expiries == 0 {
		t.Fatalf("broker stats = %+v: failover happened without lease expiry", bst)
	}
	// The zombie replica's teardown must not disturb the ledger.
	sA.Close()
	if err := broker.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiMasterBrokerRestart: a replica outlives its broker. After
// the broker restarts with a fresh ledger (new epoch), the replica's
// next job reacquires from the new broker and completes normally.
func TestMultiMasterBrokerRestart(t *testing.T) {
	term := 90 * time.Millisecond
	b1 := fleetd.NewBroker(fleetd.BrokerConfig{Capacity: 3, Term: term, Epoch: 1})
	srv1 := fleetd.NewServer(b1)

	var target atomic.Pointer[fleetd.Server]
	target.Store(srv1)
	dial := func() (msg.Conn, error) {
		a, b := msg.Pipe(64)
		if err := target.Load().ServeConn(b); err != nil {
			a.Close()
			return nil, err
		}
		return a, nil
	}

	// Caching off so the second job must lease workers again instead of
	// being served from the first render.
	s, rp := newReplica(t, "replica-a", dial, term, Config{CacheBytes: -1})
	defer s.Close()
	defer rp.Close()

	spec := JobSpec{Scene: "newton:4", W: 80, H: 80}
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1 = waitDone(t, s, st1.ID); st1.State != StateDone {
		t.Fatalf("pre-restart render: %s (%s)", st1.State, st1.Error)
	}
	want := frames(t, s, st1.ID, st1.FramesTotal)

	// Broker restarts: every conn dies, the ledger and epoch are new.
	srv1.Close()
	b2 := fleetd.NewBroker(fleetd.BrokerConfig{Capacity: 3, Term: term, Epoch: 2})
	srv2 := fleetd.NewServer(b2)
	defer srv2.Close()
	target.Store(srv2)

	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2 = waitDone(t, s, st2.ID); st2.State != StateDone {
		t.Fatalf("post-restart render: %s (%s)", st2.State, st2.Error)
	}
	got := frames(t, s, st2.ID, st2.FramesTotal)
	for f := range want {
		if !bytes.Equal(got[f], want[f]) {
			t.Fatalf("frame %d differs across the broker restart", f)
		}
	}
	if b2.Stats().Grants == 0 {
		t.Fatal("post-restart job never leased from the new broker")
	}
	if err := b2.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
