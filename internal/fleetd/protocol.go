package fleetd

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nowrender/internal/msg"
)

// Message tags of the broker protocol. Like the compositor's, they
// live in their own range (201+) so a trace mixing farm, sink and
// broker traffic stays readable; every connection is dedicated
// (replica↔broker), so no tag ever shares a conn with another
// subsystem's.
const (
	// TagHello (replica→broker) opens a connection with the replica's
	// name.
	TagHello = iota + 201
	// TagWelcome (broker→client) answers the hello with the broker's
	// epoch and default lease term; a client reconnecting under a
	// different epoch knows its held leases are void (broker restart).
	TagWelcome
	// TagAcquire (replica→broker) asks for a lease. Req multiplexes
	// concurrent acquires on one conn; grants echo it.
	TagAcquire
	// TagGrant (broker→replica) answers an acquire: lease id, granted
	// units, term — or Err when the broker has nothing to grant.
	TagGrant
	// TagRenew (replica→broker) extends a held lease's term.
	TagRenew
	// TagRenewed (broker→replica) answers a renew. OK=false means the
	// lease already expired or was never this replica's: the replica
	// must treat its slots as gone.
	TagRenewed
	// TagRelease (replica→broker) returns a lease early. No reply —
	// release is fire-and-forget, expiry backstops the loss.
	TagRelease
	// TagStatsReq (client→broker) asks for a ledger snapshot.
	TagStatsReq
	// TagStats (broker→client) answers with BrokerStats.
	TagStats
	// TagFleetBye (either side) announces a clean close.
	TagFleetBye
)

// maxUnits bounds a grant's unit list on decode (a hostile payload must
// not allocate unbounded memory; no real pool is this big).
const maxUnits = 1 << 16

// Hello opens a replica's connection; Name is the replica lease
// ownership is checked against.
type Hello struct{ Name string }

func (h *Hello) Fields(b *msg.Buffer) { b.String(&h.Name) }

// Validate rejects a missing name.
func (h *Hello) Validate() error {
	if h.Name == "" {
		return fmt.Errorf("no name")
	}
	return nil
}

// Welcome answers a hello.
type Welcome struct {
	Epoch int64
	// TermMS is the broker's default lease term in milliseconds.
	TermMS int64
}

func (w *Welcome) Fields(b *msg.Buffer) {
	b.Int64(&w.Epoch)
	b.Int64(&w.TermMS)
}

func (w *Welcome) Validate() error { return checkTerm(w.TermMS, math.MaxInt64) }

// checkTerm bounds a lease term in milliseconds to [0, max].
func checkTerm(ms, max int64) error {
	if ms < 0 || ms > max {
		return fmt.Errorf("term %dms", ms)
	}
	return nil
}

// maxTermMS is MaxTerm in milliseconds, the longest term a client may ask
// for.
const maxTermMS = int64(MaxTerm / time.Millisecond)

// AcquireReq asks for a lease.
type AcquireReq struct {
	Req    uint64
	Want   int
	TermMS int64
}

func (a *AcquireReq) Fields(b *msg.Buffer) {
	b.Uint64(&a.Req)
	b.Int(&a.Want)
	b.Int64(&a.TermMS)
}

func (a *AcquireReq) Validate() error {
	if a.Want < -1 || a.Want > maxUnits {
		return fmt.Errorf("want %d", a.Want)
	}
	return checkTerm(a.TermMS, maxTermMS)
}

// Grant answers an acquire.
type Grant struct {
	Req    uint64
	Lease  uint64
	Slots  int
	Units  []string
	TermMS int64
	// Err, when non-empty, reports a refused acquire (no capacity).
	Err string
}

func (g *Grant) Fields(b *msg.Buffer) {
	b.Uint64(&g.Req)
	b.Uint64(&g.Lease)
	b.Int(&g.Slots)
	msg.List(b, &g.Units, maxUnits, 8)
	for i := range g.Units {
		b.String(&g.Units[i])
	}
	b.Int64(&g.TermMS)
	b.String(&g.Err)
}

// Validate rejects a slot count out of range and the accounting lie of a
// granted slot count that disagrees with the unit list.
func (g *Grant) Validate() error {
	if g.Slots < 0 || g.Slots > maxUnits || g.TermMS < 0 {
		return fmt.Errorf("slots %d term %dms", g.Slots, g.TermMS)
	}
	if g.Err == "" && g.Slots != len(g.Units) {
		return fmt.Errorf("slots %d != units %d", g.Slots, len(g.Units))
	}
	return nil
}

// RenewReq extends a lease.
type RenewReq struct {
	Req    uint64
	Lease  uint64
	TermMS int64
}

func (r *RenewReq) Fields(b *msg.Buffer) {
	b.Uint64(&r.Req)
	b.Uint64(&r.Lease)
	b.Int64(&r.TermMS)
}

func (r *RenewReq) Validate() error { return checkTerm(r.TermMS, maxTermMS) }

// Renewed answers a renew.
type Renewed struct {
	Req    uint64
	Lease  uint64
	OK     bool
	TermMS int64
}

func (r *Renewed) Fields(b *msg.Buffer) {
	b.Uint64(&r.Req)
	b.Uint64(&r.Lease)
	b.Bool(&r.OK)
	b.Int64(&r.TermMS)
}

func (r *Renewed) Validate() error { return checkTerm(r.TermMS, math.MaxInt64) }

// Release returns a lease early (TagRelease).
type Release struct{ Lease uint64 }

func (r *Release) Fields(b *msg.Buffer) { b.Uint64(&r.Lease) }

// Req is a bare request id (TagStatsReq, and TagFleetBye with 0).
type Req struct{ Req uint64 }

func (r *Req) Fields(b *msg.Buffer) { b.Uint64(&r.Req) }

// StatsMsg is the wire form of BrokerStats, its member map flattened
// into a list sorted by name.
type StatsMsg struct {
	Req                                       uint64
	Capacity, Free, Leased                    int
	Grants, Renews, Expiries, Releases, Waits uint64
	Members                                   []Member
}

// Member is one broker member and the slots it contributes.
type Member struct {
	Name  string
	Slots int
}

// memberList flattens a member map into the sorted list StatsMsg carries.
func memberList(members map[string]int) []Member {
	var out []Member
	for name, slots := range members {
		out = append(out, Member{name, slots})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *StatsMsg) Fields(b *msg.Buffer) {
	b.Uint64(&s.Req)
	b.Int(&s.Capacity)
	b.Int(&s.Free)
	b.Int(&s.Leased)
	b.Uint64(&s.Grants)
	b.Uint64(&s.Renews)
	b.Uint64(&s.Expiries)
	b.Uint64(&s.Releases)
	b.Uint64(&s.Waits)
	msg.List(b, &s.Members, maxUnits, 16)
	for i := range s.Members {
		b.String(&s.Members[i].Name)
		b.Int(&s.Members[i].Slots)
	}
}

func (s *StatsMsg) Validate() error {
	if s.Capacity < 0 || s.Free < 0 || s.Leased < 0 {
		return fmt.Errorf("counts %d/%d/%d", s.Capacity, s.Free, s.Leased)
	}
	return nil
}
