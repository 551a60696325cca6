// Package fleetd is the fleet broker of the multi-master control
// plane: the one place worker capacity is owned when several `now serve`
// replicas share one pool (ROADMAP item 1). Members register their slots
// once, when the broker starts; replicas acquire time-bounded, renewable
// leases on those slots. A replica that crashes simply stops renewing, its
// leases expire, and the slots return to the pool — which is how a dead
// master's workers rejoin and its in-flight jobs fail over to a
// survivor without any replica-to-replica coordination.
//
// Leases are granted as named slot units ("pool/2", "ws01/0"), so the
// single-leaseholder invariant — no worker slot held by two replicas at
// once — is a checkable property of the ledger (CheckInvariant), not a
// convention. Like the service's private pool, a lease is capacity
// accounting rather than worker pinning: the farm drivers still spin up
// their own workers per run, bounded by the slots granted.
//
// The package splits into the Broker (the ledger; this file), the wire
// protocol (protocol.go, tagged messages over internal/msg), the
// Server (server.go) and the replica-side client (client.go), which
// implements Leaser — the seam internal/service renders through — so
// the service plugs into a broker the same way it plugs into its
// private pool.
package fleetd

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"nowrender/internal/timeline"
)

// Term bounds: a requested lease term is clamped into [MinTerm,
// MaxTerm]; zero selects the broker's default. The floor keeps a
// misconfigured replica from thrashing the ledger, the ceiling keeps a
// crashed replica from parking workers for hours.
const (
	MinTerm     = 20 * time.Millisecond
	MaxTerm     = time.Hour
	DefaultTerm = 15 * time.Second
)

// Unit names one worker slot: "member/index". Base capacity registers
// under the member name "pool".
type Unit string

// BaseMember is the member name the broker's own -capacity slots
// register under.
const BaseMember = "pool"

// BrokerConfig tunes a Broker.
type BrokerConfig struct {
	// Capacity is the base worker-slot capacity owned by the broker
	// itself (units "pool/i"), before any members join.
	Capacity int
	// Term is the default lease term when an acquire asks for none.
	// 0 selects DefaultTerm.
	Term time.Duration
	// Epoch identifies this broker incarnation; clients compare it
	// across reconnects to tell a dropped connection (same epoch,
	// leases intact) from a broker restart (new epoch, leases void).
	// 0 derives one from the wall clock at construction.
	Epoch int64
	// Now is the broker's clock; nil = time.Now. Tests inject a manual
	// clock for deterministic expiry.
	Now func() time.Time
	// Timeline, when non-nil, records lease-grant/renew/expire instants
	// onto a "fleetd" track.
	Timeline *timeline.Recorder
}

// BrokerStats snapshots the ledger.
type BrokerStats struct {
	// Capacity is the total registered slot units; Free how many are
	// currently unleased; Leased how many are out on live leases.
	Capacity, Free, Leased int
	// Members maps member names to the slots they contribute (including
	// BaseMember for base capacity).
	Members map[string]int
	// Replicas maps replica names to the slots they currently hold.
	Replicas map[string]int
	// Counters since construction.
	Grants, Renews, Expiries, Releases, Waits uint64
}

// GrantInfo is one granted lease as the broker sees it.
type GrantInfo struct {
	ID      uint64
	Replica string
	Units   []Unit
	Term    time.Duration
	Expires time.Time
}

type brokerLease struct {
	id      uint64
	replica string
	units   []Unit
	expires time.Time
}

// Broker is the lease ledger. All methods are safe for concurrent use.
type Broker struct {
	mu      sync.Mutex
	now     func() time.Time
	term    time.Duration
	epoch   int64
	members map[string]int
	free    []Unit // kept sorted: grants are deterministic
	leases  map[uint64]*brokerLease
	nextID  uint64
	// freed is closed and replaced whenever units return, waking
	// blocked Acquire calls.
	freed chan struct{}

	grants, renews, expiries, releases, waits uint64

	track *timeline.Track
}

// NewBroker returns a ready broker.
func NewBroker(cfg BrokerConfig) *Broker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Term <= 0 {
		cfg.Term = DefaultTerm
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = cfg.Now().UnixNano()
	}
	b := &Broker{
		now:     cfg.Now,
		term:    clampTerm(cfg.Term),
		epoch:   cfg.Epoch,
		members: make(map[string]int),
		leases:  make(map[uint64]*brokerLease),
		freed:   make(chan struct{}),
	}
	if cfg.Timeline != nil {
		b.track = cfg.Timeline.Track("fleetd")
	}
	if cfg.Capacity > 0 {
		b.joinLocked(BaseMember, cfg.Capacity)
	}
	return b
}

func clampTerm(t time.Duration) time.Duration {
	if t < MinTerm {
		return MinTerm
	}
	if t > MaxTerm {
		return MaxTerm
	}
	return t
}

// Epoch identifies this broker incarnation.
func (b *Broker) Epoch() int64 { return b.epoch }

// DefaultTerm is the term used when an acquire asks for none.
func (b *Broker) DefaultTerm() time.Duration { return b.term }

// Join registers a member contributing slots worker slots, waking
// blocked acquires. A member is registered once and never resized or
// removed, so every unit the broker grants stays its capacity; Join
// refuses a name already registered, BaseMember included.
func (b *Broker) Join(member string, slots int) error {
	if member == "" || slots <= 0 {
		return fmt.Errorf("fleetd: member %q needs a name and positive slots", member)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.members[member]; ok {
		return fmt.Errorf("fleetd: member %q already registered", member)
	}
	b.joinLocked(member, slots)
	b.wakeLocked()
	return nil
}

func (b *Broker) joinLocked(member string, slots int) {
	b.members[member] = slots
	for i := range slots {
		b.free = append(b.free, unitName(member, i))
	}
	sortUnits(b.free)
}

func unitName(member string, i int) Unit {
	return Unit(fmt.Sprintf("%s/%d", member, i))
}

func sortUnits(units []Unit) {
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
}

func (b *Broker) wakeLocked() {
	close(b.freed)
	b.freed = make(chan struct{})
}

// capacityLocked is the total registered slot count.
func (b *Broker) capacityLocked() int {
	total := 0
	for _, c := range b.members {
		total += c
	}
	return total
}

func (b *Broker) leasedLocked() int {
	n := 0
	for _, l := range b.leases {
		n += len(l.units)
	}
	return n
}

// expireLocked retires every lease past its expiry, returning its units
// to the free set. Returns true if anything expired.
func (b *Broker) expireLocked(now time.Time) bool {
	var expired []uint64
	for id, l := range b.leases {
		if !l.expires.After(now) {
			expired = append(expired, id)
		}
	}
	// Deterministic retirement order for the timeline and tests.
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		l := b.leases[id]
		delete(b.leases, id)
		b.returnUnitsLocked(l.units)
		b.expiries++
		if b.track != nil {
			b.track.Instant(timeline.OpLeaseExpire, -1, int64(l.id))
		}
	}
	if len(expired) > 0 {
		b.wakeLocked()
		return true
	}
	return false
}

// returnUnitsLocked puts a lease's units back in the free set.
func (b *Broker) returnUnitsLocked(units []Unit) {
	b.free = append(b.free, units...)
	sortUnits(b.free)
}

// nextExpiryLocked returns the soonest lease expiry, or zero time when
// no leases are live.
func (b *Broker) nextExpiryLocked() time.Time {
	var next time.Time
	for _, l := range b.leases {
		if next.IsZero() || l.expires.Before(next) {
			next = l.expires
		}
	}
	return next
}

// Expire retires leases past their term now. The Server's sweeper and
// blocked Acquire calls both drive it; tests with a manual clock call
// it after advancing time.
func (b *Broker) Expire() {
	b.mu.Lock()
	b.expireLocked(b.now())
	b.mu.Unlock()
}

// Acquire grants replica a lease of up to n slot units for the given
// term (0 = the broker default), blocking while the pool is empty. Like
// the service's private pool, an over-ask clamps to the pool's capacity —
// the caller sizes its run to the granted slots — and n <= 0 asks for
// the whole pool. An empty ledger (no members at all) errors rather
// than blocks.
func (b *Broker) Acquire(ctx context.Context, replica string, n int, term time.Duration) (GrantInfo, error) {
	if term <= 0 {
		term = b.term
	}
	term = clampTerm(term)
	b.mu.Lock()
	first := true
	for {
		now := b.now()
		b.expireLocked(now)
		cap := b.capacityLocked()
		if cap == 0 {
			b.mu.Unlock()
			return GrantInfo{}, fmt.Errorf("fleetd: broker has no capacity")
		}
		want := n
		if want <= 0 || want > cap {
			want = cap
		}
		if len(b.free) < want {
			if first {
				b.waits++
				first = false
			}
			ch := b.freed
			// Wake at the earliest lease expiry even if nobody releases:
			// expiry is what returns a crashed replica's units.
			var timer <-chan time.Time
			if next := b.nextExpiryLocked(); !next.IsZero() {
				d := next.Sub(now)
				if d < 0 {
					d = 0
				}
				timer = time.After(d)
			}
			b.mu.Unlock()
			select {
			case <-ch:
			case <-timer:
			case <-ctx.Done():
				return GrantInfo{}, ctx.Err()
			}
			b.mu.Lock()
			continue
		}
		units := make([]Unit, want)
		copy(units, b.free[:want])
		b.free = b.free[want:]
		b.nextID++
		l := &brokerLease{
			id:      b.nextID,
			replica: replica,
			units:   units,
			expires: now.Add(term),
		}
		b.leases[l.id] = l
		b.grants++
		if b.track != nil {
			b.track.Instant(timeline.OpLease, -1, int64(len(units)))
		}
		g := GrantInfo{ID: l.id, Replica: replica, Units: units, Term: term, Expires: l.expires}
		b.mu.Unlock()
		return g, nil
	}
}

// Renew extends a lease's term from now. It fails — and the replica
// must stop using the slots — when the lease already expired, was
// released, or belongs to another replica.
func (b *Broker) Renew(replica string, id uint64, term time.Duration) (time.Duration, bool) {
	if term <= 0 {
		term = b.term
	}
	term = clampTerm(term)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.expireLocked(now)
	l, ok := b.leases[id]
	if !ok || l.replica != replica {
		return 0, false
	}
	l.expires = now.Add(term)
	b.renews++
	if b.track != nil {
		b.track.Instant(timeline.OpLeaseRenew, -1, int64(id))
	}
	return term, true
}

// Release returns a lease's units to the pool. Releasing an expired,
// unknown, or foreign lease is a counted no-op.
func (b *Broker) Release(replica string, id uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.leases[id]
	if !ok || l.replica != replica {
		return false
	}
	delete(b.leases, id)
	b.returnUnitsLocked(l.units)
	b.releases++
	b.wakeLocked()
	return true
}

// Leases snapshots the live leases, ordered by id.
func (b *Broker) Leases() []GrantInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]GrantInfo, 0, len(b.leases))
	for _, l := range b.leases {
		units := make([]Unit, len(l.units))
		copy(units, l.units)
		out = append(out, GrantInfo{
			ID: l.id, Replica: l.replica, Units: units, Expires: l.expires,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the ledger.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	members := make(map[string]int, len(b.members))
	for m, c := range b.members {
		members[m] = c
	}
	replicas := make(map[string]int)
	for _, l := range b.leases {
		replicas[l.replica] += len(l.units)
	}
	return BrokerStats{
		Capacity: b.capacityLocked(),
		Free:     len(b.free),
		Leased:   b.leasedLocked(),
		Members:  members,
		Replicas: replicas,
		Grants:   b.grants,
		Renews:   b.renews,
		Expiries: b.expiries,
		Releases: b.releases,
		Waits:    b.waits,
	}
}

// CheckInvariant verifies the single-leaseholder property the failover
// suite pins: every registered slot unit is either free or held by
// exactly one live lease, never both and never twice, so held + free ==
// capacity. It returns the first violation found, nil when the ledger
// is consistent.
func (b *Broker) CheckInvariant() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	holder := make(map[Unit]string, b.capacityLocked())
	for _, l := range b.leases {
		for _, u := range l.units {
			if prev, dup := holder[u]; dup {
				return fmt.Errorf("fleetd: unit %s leased to both %s and %s", u, prev, l.replica)
			}
			holder[u] = l.replica
		}
	}
	seen := make(map[Unit]bool, len(b.free))
	for _, u := range b.free {
		if seen[u] {
			return fmt.Errorf("fleetd: unit %s free twice", u)
		}
		seen[u] = true
		if r, held := holder[u]; held {
			return fmt.Errorf("fleetd: unit %s both free and leased to %s", u, r)
		}
	}
	if len(holder)+len(b.free) != b.capacityLocked() {
		return fmt.Errorf("fleetd: %d held + %d free, capacity %d",
			len(holder), len(b.free), b.capacityLocked())
	}
	for member, slots := range b.members {
		for i := range slots {
			u := unitName(member, i)
			if _, held := holder[u]; !held && !seen[u] {
				return fmt.Errorf("fleetd: unit %s neither free nor leased", u)
			}
		}
	}
	return nil
}
