// Package faulty is a deterministic fault-injection wrapper around
// msg.Conn: it delays, drops, truncates, corrupts or severs messages on
// a seeded, per-tag schedule. It is the chaos layer the farm's
// regression net renders through — the same animation must come out
// byte-identical whether the transport is clean or hostile, as long as
// one worker survives.
//
// A Plan is a seeded list of Rules. Each name — a worker — gets its own
// schedule that evaluates the rules against every message it sends and
// receives; probabilistic rules draw from an RNG derived from the plan
// seed and the name, so a given (plan, name) pair always produces the
// same faults for the same message sequence. Count-based rules
// (Rule.After) trigger on the Nth matching message with no randomness at
// all, which is what the deterministic protocol-failure tests use.
//
// A schedule reaches a worker two ways. Wrap applies it to a msg.Conn on
// the wall clock: the in-process pipes of farm.RenderLocal's goroutine
// workers and real TCP (cmd/nowworker's -chaos flag wraps its dialed
// connection). Decide hands it to a host with no connections — the
// virtual NOW of farm.RenderVirtual, which applies each fault to a
// machine's messages on the virtual clock.
package faulty

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nowrender/internal/msg"
)

// Action is what a triggered rule does to the message.
type Action int

const (
	// Drop silently discards the message (Send pretends it succeeded,
	// Recv skips to the next message).
	Drop Action = iota
	// Delay holds the message back by Rule.Delay: a sleep on a wrapped
	// conn, the sending or receiving machine's clock on the virtual NOW.
	Delay
	// Corrupt flips bytes in a copy of the payload.
	Corrupt
	// Truncate cuts the payload to a strict prefix.
	Truncate
	// Sever closes the underlying connection; every later operation
	// fails — a workstation dropping off the network mid-run.
	Sever
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case Sever:
		return "sever"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Dir selects which direction(s) of a connection a rule applies to.
type Dir int

const (
	// Both matches sends and receives.
	Both Dir = iota
	// SendOnly matches only outgoing messages.
	SendOnly
	// RecvOnly matches only incoming messages.
	RecvOnly
)

// Rule matches messages and applies one Action. A rule triggers either
// probabilistically (Prob, seeded) or deterministically on the Nth match
// (After); setting both makes After the gate and Prob is ignored.
type Rule struct {
	// Tag matches the message tag; 0 (no farm message uses tag 0)
	// matches every tag.
	Tag int
	// Dir restricts the direction (default Both).
	Dir Dir
	// Prob is the per-message trigger probability in [0, 1].
	Prob float64
	// After, when > 0, triggers exactly once, on the After-th matching
	// message of this connection+direction.
	After int
	// Action is applied on trigger.
	Action Action
	// Delay is the sleep for Action == Delay.
	Delay time.Duration
}

// matches reports whether the rule applies to a message in direction d.
func (r *Rule) matches(tag int, d Dir) bool {
	if r.Tag != 0 && r.Tag != tag {
		return false
	}
	return r.Dir == Both || r.Dir == d
}

// Stats counts the faults a plan actually injected, summed over all its
// wrapped connections. Read with Snapshot.
type Stats struct {
	Dropped, Delayed, Corrupted, Truncated, Severed uint64
}

// Plan is a reusable fault schedule: wrap any number of connections and
// each gets its own deterministic stream derived from Seed and its name.
type Plan struct {
	// Seed roots every per-connection RNG; two runs with the same seed,
	// names and message sequences inject the same faults.
	Seed int64
	// Rules are evaluated in order; the first triggered rule acts and
	// evaluation stops for that message.
	Rules []Rule
	// Protect lists connection names Wrap returns unwrapped — the chaos
	// tests keep at least one worker fault-free so the farm's
	// "completes with ≥1 live worker" guarantee is exercised, not
	// vacuously failed.
	Protect []string

	injected [Sever + 1]atomic.Uint64 // by Action
}

// Snapshot returns the faults injected so far across all connections.
func (p *Plan) Snapshot() Stats {
	return Stats{
		Dropped:   p.injected[Drop].Load(),
		Delayed:   p.injected[Delay].Load(),
		Corrupted: p.injected[Corrupt].Load(),
		Truncated: p.injected[Truncate].Load(),
		Severed:   p.injected[Sever].Load(),
	}
}

// Wrap returns a Conn that injects this plan's faults into c. Protected
// names get c back unchanged. Safe to call from concurrent goroutines;
// each call derives an independent deterministic RNG.
func (p *Plan) Wrap(name string, c msg.Conn) msg.Conn {
	if decide := p.Decide(name); decide != nil {
		return &conn{inner: c, decide: decide}
	}
	return c
}

// Decide returns name's schedule for a host with no connection to wrap:
// given a message's tag, direction and payload, the triggered rule (nil:
// none), counted in Snapshot, and the payload, mangled for Corrupt and
// Truncate. Acting on the rule is the caller's. A protected name, or a
// nil plan, gets nil.
func (p *Plan) Decide(name string) func(tag int, d Dir, data []byte) (*Rule, []byte) {
	if p == nil || slices.Contains(p.Protect, name) {
		return nil
	}
	s := &schedule{
		plan:  p,
		rng:   rand.New(rand.NewSource(p.Seed ^ int64(fnv64(name)))),
		sent:  make([]int, len(p.Rules)),
		recvd: make([]int, len(p.Rules)),
	}
	return s.apply
}

// fnv64 hashes a connection name (FNV-1a) to diversify per-conn seeds.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// schedule is one name's faults: the rules' per-direction match counts
// and the seeded RNG, guarded by mu (a conn's Send and Recv may run
// concurrently).
type schedule struct {
	plan *Plan

	mu          sync.Mutex
	rng         *rand.Rand
	sent, recvd []int // per-rule match counts by direction
}

// apply decides one message's fault and counts it: the triggered rule,
// if any, and the payload to deliver.
func (s *schedule) apply(tag int, d Dir, data []byte) (*Rule, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.decide(tag, d)
	if r == nil {
		return nil, data
	}
	s.plan.injected[r.Action].Add(1)
	if r.Action == Corrupt || r.Action == Truncate {
		data = s.mangle(r, data)
	}
	return r, data
}

// decide evaluates the rules for one message and returns the triggered
// rule, if any.
func (s *schedule) decide(tag int, d Dir) *Rule {
	counts := s.sent
	if d == RecvOnly {
		counts = s.recvd
	}
	for i := range s.plan.Rules {
		r := &s.plan.Rules[i]
		if !r.matches(tag, d) {
			continue
		}
		counts[i]++
		if r.After > 0 {
			if counts[i] == r.After {
				return r
			}
			continue
		}
		if r.Prob > 0 && s.rng.Float64() < r.Prob {
			return r
		}
	}
	return nil
}

// mangle applies a payload-altering action to a copy of data (the
// original may be shared with the peer on the in-process transport).
func (s *schedule) mangle(r *Rule, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	switch r.Action {
	case Corrupt:
		// Flip 1-4 bytes at seeded offsets.
		n := 1 + s.rng.Intn(4)
		for i := 0; i < n; i++ {
			out[s.rng.Intn(len(out))] ^= byte(1 + s.rng.Intn(255))
		}
	case Truncate:
		out = out[:s.rng.Intn(len(out))]
	}
	return out
}

// conn is one faulty connection: a schedule applied on the wall clock.
type conn struct {
	inner   msg.Conn
	decide  func(tag int, d Dir, data []byte) (*Rule, []byte)
	severed atomic.Bool
}

// fault applies m's schedule: it returns the (possibly altered) message,
// whether to deliver it, and an error once the connection is severed.
func (c *conn) fault(m msg.Message, d Dir) (msg.Message, bool, error) {
	r, data := c.decide(m.Tag, d, m.Data)
	if r == nil {
		return m, true, nil
	}
	m.Data = data
	switch r.Action {
	case Drop:
		return m, false, nil
	case Delay:
		time.Sleep(r.Delay)
	case Sever:
		c.severed.Store(true)
		c.inner.Close()
		return m, false, msg.ErrClosed
	}
	return m, true, nil
}

// Send implements msg.Conn.
func (c *conn) Send(m msg.Message) error {
	if c.severed.Load() {
		return msg.ErrClosed
	}
	m, deliver, err := c.fault(m, SendOnly)
	if !deliver {
		return err // dropped: pretend it went out
	}
	return c.inner.Send(m)
}

// Recv implements msg.Conn. Dropped incoming messages are skipped, not
// surfaced.
func (c *conn) Recv() (msg.Message, error) {
	for !c.severed.Load() {
		m, err := c.inner.Recv()
		if err != nil {
			return msg.Message{}, err
		}
		if m, deliver, err := c.fault(m, RecvOnly); deliver || err != nil {
			return m, err
		}
	}
	return msg.Message{}, msg.ErrClosed
}

// Close implements msg.Conn.
func (c *conn) Close() error { return c.inner.Close() }

// ParsePlan builds a Plan from a compact flag string, the form the three
// daemons expose as -chaos:
//
//	seed=7,drop=0.01,corrupt=0.005,truncate=0.005,delay=0.02:5ms,sever=0.001,protect=ws01
//
// Every probability applies to all tags in both directions; protect may
// repeat. An empty spec returns (nil, nil).
func ParsePlan(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faulty: bad field %q (want key=value)", field)
		}
		prob := func() (float64, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return 0, fmt.Errorf("faulty: %s=%q: want a probability in [0,1]", key, val)
			}
			return f, nil
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faulty: seed=%q: %v", val, err)
			}
			p.Seed = n
		case "protect":
			p.Protect = append(p.Protect, val)
		case "drop", "corrupt", "truncate", "sever":
			f, err := prob()
			if err != nil {
				return nil, err
			}
			act := map[string]Action{"drop": Drop, "corrupt": Corrupt, "truncate": Truncate, "sever": Sever}[key]
			p.Rules = append(p.Rules, Rule{Prob: f, Action: act})
		case "delay":
			probStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faulty: delay=%q: want prob:duration (e.g. 0.02:5ms)", val)
			}
			f, err := strconv.ParseFloat(probStr, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("faulty: delay=%q: bad probability", val)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faulty: delay=%q: bad duration", val)
			}
			p.Rules = append(p.Rules, Rule{Prob: f, Action: Delay, Delay: d})
		default:
			return nil, fmt.Errorf("faulty: unknown key %q", key)
		}
	}
	return p, nil
}
