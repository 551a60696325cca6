package fleetd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// manualClock is an injectable broker clock for deterministic expiry.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBroker(t *testing.T, capacity int) (*Broker, *manualClock) {
	t.Helper()
	clk := newManualClock()
	b := NewBroker(BrokerConfig{Capacity: capacity, Term: time.Second, Now: clk.Now})
	return b, clk
}

func mustAcquire(t *testing.T, b *Broker, replica string, n int, term time.Duration) GrantInfo {
	t.Helper()
	g, err := b.Acquire(context.Background(), replica, n, term)
	if err != nil {
		t.Fatalf("acquire(%s, %d): %v", replica, n, err)
	}
	return g
}

func checkInvariant(t *testing.T, b *Broker) {
	t.Helper()
	if err := b.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokerGrantDeterministicUnits: grants hand out the lowest-sorted
// free units, so two identical ledgers grant identically.
func TestBrokerGrantDeterministicUnits(t *testing.T) {
	b, _ := testBroker(t, 4)
	g := mustAcquire(t, b, "a", 2, 0)
	if len(g.Units) != 2 || g.Units[0] != "pool/0" || g.Units[1] != "pool/1" {
		t.Fatalf("units = %v, want [pool/0 pool/1]", g.Units)
	}
	g2 := mustAcquire(t, b, "b", 2, 0)
	if len(g2.Units) != 2 || g2.Units[0] != "pool/2" || g2.Units[1] != "pool/3" {
		t.Fatalf("units = %v, want [pool/2 pool/3]", g2.Units)
	}
	checkInvariant(t, b)
	st := b.Stats()
	if st.Leased != 4 || st.Free != 0 || st.Replicas["a"] != 2 || st.Replicas["b"] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBrokerExpiryFreesCrashedReplicasUnits: a replica that stops
// renewing loses its lease after one term, and the units go back to the
// pool for others.
func TestBrokerExpiryFreesCrashedReplicasUnits(t *testing.T) {
	b, clk := testBroker(t, 2)
	g := mustAcquire(t, b, "a", 2, time.Second)
	if got := b.Stats().Free; got != 0 {
		t.Fatalf("free = %d, want 0", got)
	}
	clk.Advance(999 * time.Millisecond)
	b.Expire()
	if got := b.Stats().Expiries; got != 0 {
		t.Fatalf("lease expired before its term (expiries = %d)", got)
	}
	clk.Advance(2 * time.Millisecond)
	b.Expire()
	st := b.Stats()
	if st.Expiries != 1 || st.Free != 2 || st.Leased != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
	// The dead lease can no longer be renewed or released.
	if _, ok := b.Renew("a", g.ID, 0); ok {
		t.Fatal("renewed an expired lease")
	}
	if b.Release("a", g.ID) {
		t.Fatal("released an expired lease")
	}
	checkInvariant(t, b)
	// And another replica gets the same units.
	g2 := mustAcquire(t, b, "b", 2, 0)
	if g2.Units[0] != "pool/0" || g2.Units[1] != "pool/1" {
		t.Fatalf("units after expiry = %v", g2.Units)
	}
}

// TestBrokerRenewExtendsTerm: renewing pushes expiry out from now, so a
// live replica holds its workers indefinitely.
func TestBrokerRenewExtendsTerm(t *testing.T) {
	b, clk := testBroker(t, 1)
	g := mustAcquire(t, b, "a", 1, time.Second)
	for i := 0; i < 5; i++ {
		clk.Advance(900 * time.Millisecond)
		if _, ok := b.Renew("a", g.ID, time.Second); !ok {
			t.Fatalf("renew %d failed", i)
		}
	}
	b.Expire()
	if st := b.Stats(); st.Leased != 1 || st.Renews != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// Renewing under the wrong replica name must fail: leases are owned.
	if _, ok := b.Renew("b", g.ID, 0); ok {
		t.Fatal("foreign replica renewed the lease")
	}
	checkInvariant(t, b)
}

// TestBrokerBlockedAcquireWakesOnExpiry: an acquire blocked on an
// exhausted pool is granted as soon as another replica's lease expires
// — without any explicit release or sweeper.
func TestBrokerBlockedAcquireWakesOnExpiry(t *testing.T) {
	clk := newManualClock()
	b := NewBroker(BrokerConfig{Capacity: 1, Term: 30 * time.Millisecond, Now: clk.Now})
	mustAcquire(t, b, "a", 1, 30*time.Millisecond)

	granted := make(chan GrantInfo, 1)
	go func() {
		g, err := b.Acquire(context.Background(), "b", 1, 0)
		if err != nil {
			t.Error(err)
		}
		granted <- g
	}()
	select {
	case <-granted:
		t.Fatal("acquire granted while pool exhausted")
	case <-time.After(20 * time.Millisecond):
	}
	// The manual clock jumps past a's expiry; the blocked acquire's own
	// expiry timer (armed from real time) re-checks and finds the unit.
	clk.Advance(31 * time.Millisecond)
	select {
	case g := <-granted:
		if g.Replica != "b" || len(g.Units) != 1 {
			t.Fatalf("grant = %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquire never woke on expiry")
	}
	checkInvariant(t, b)
}

// TestBrokerAcquireHonoursContext: a blocked acquire unblocks with the
// context error.
func TestBrokerAcquireHonoursContext(t *testing.T) {
	b, _ := testBroker(t, 1)
	mustAcquire(t, b, "a", 1, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.Acquire(ctx, "b", 1, 0); err == nil {
		t.Fatal("acquire succeeded on an exhausted pool with an expiring context")
	}
}

// TestBrokerOverAskClampsToCapacity mirrors the service's pool: asking for more
// than the whole pool grants the whole pool, not a deadlock.
func TestBrokerOverAskClampsToCapacity(t *testing.T) {
	b, _ := testBroker(t, 3)
	g := mustAcquire(t, b, "a", 50, 0)
	if len(g.Units) != 3 {
		t.Fatalf("granted %d units, want clamp to 3", len(g.Units))
	}
	b.Release("a", g.ID)
	if st := b.Stats(); st.Free != 3 || st.Releases != 1 {
		t.Fatalf("stats after release = %+v", st)
	}
	checkInvariant(t, b)
}

// TestBrokerEmptyLedgerRefuses: with no members at all, Acquire errors
// instead of blocking forever.
func TestBrokerEmptyLedgerRefuses(t *testing.T) {
	b := NewBroker(BrokerConfig{Capacity: 0, Now: newManualClock().Now})
	if _, err := b.Acquire(context.Background(), "a", 1, 0); err == nil {
		t.Fatal("acquire granted on an empty ledger")
	}
}

// TestBrokerMemberLameDuckDrain: a member leaving while its units are
// leased retires those units at lease end instead of revoking them —
// capacity shrinks, the invariant holds throughout.
func TestBrokerMemberLameDuckDrain(t *testing.T) {
	b, clk := testBroker(t, 0)
	b.Join("ws01", 2)
	b.Join("ws02", 2)
	g := mustAcquire(t, b, "a", 4, time.Second)
	b.Leave("ws02")
	checkInvariant(t, b)
	if st := b.Stats(); st.Capacity != 2 || st.Leased != 4 {
		t.Fatalf("stats after leave = %+v (lame-duck over-subscription expected)", st)
	}
	// The lease ends; ws02's units vanish, ws01's return.
	clk.Advance(2 * time.Second)
	b.Expire()
	checkInvariant(t, b)
	st := b.Stats()
	if st.Capacity != 2 || st.Free != 2 || st.Leased != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
	_ = g
}

// TestBrokerJoinWakesBlockedAcquire: capacity arriving via Join grants
// a waiting replica.
func TestBrokerJoinWakesBlockedAcquire(t *testing.T) {
	b := NewBroker(BrokerConfig{Capacity: 1, Term: time.Hour, Now: newManualClock().Now})
	mustAcquire(t, b, "a", 1, 0)
	granted := make(chan struct{})
	go func() {
		if _, err := b.Acquire(context.Background(), "b", 1, 0); err != nil {
			t.Error(err)
		}
		close(granted)
	}()
	time.Sleep(20 * time.Millisecond)
	b.Join("ws01", 1)
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("join did not wake the blocked acquire")
	}
	checkInvariant(t, b)
}

// TestBrokerCheckInvariantCatchesCorruption: the checker actually
// detects a double-leased unit (white-box: corrupt the ledger).
func TestBrokerCheckInvariantCatchesCorruption(t *testing.T) {
	b, _ := testBroker(t, 2)
	mustAcquire(t, b, "a", 1, 0)
	b.mu.Lock()
	b.leases[999] = &brokerLease{
		id: 999, replica: "evil",
		units:   []Unit{"pool/0"}, // already leased to a
		expires: b.now().Add(time.Hour),
	}
	b.mu.Unlock()
	err := b.CheckInvariant()
	if err == nil || !strings.Contains(err.Error(), "leased to both") {
		t.Fatalf("invariant checker missed the double lease: %v", err)
	}
}

// TestClampTerm pins the term bounds.
func TestClampTerm(t *testing.T) {
	if got := clampTerm(0); got != MinTerm {
		t.Fatalf("clampTerm(0) = %v", got)
	}
	if got := clampTerm(48 * time.Hour); got != MaxTerm {
		t.Fatalf("clampTerm(48h) = %v", got)
	}
	if got := clampTerm(time.Second); got != time.Second {
		t.Fatalf("clampTerm(1s) = %v", got)
	}
}
