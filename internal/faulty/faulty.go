// Package faulty is a deterministic fault-injection wrapper around
// msg.Conn: it delays, drops, truncates, corrupts or severs messages on
// a seeded, per-tag schedule. It is the chaos layer the farm's
// regression net renders through — the same animation must come out
// byte-identical whether the transport is clean or hostile, as long as
// one worker survives.
//
// A Plan is a seeded list of Rules. Each wrapped connection evaluates
// the rules against every message it sends and receives; probabilistic
// rules draw from a per-connection RNG derived from the plan seed and
// the connection name, so a given (plan, name) pair always produces the
// same schedule for the same message sequence. Count-based rules
// (Rule.After) trigger on the Nth matching message with no randomness at
// all, which is what the deterministic protocol-failure tests use.
//
// The wrapper plugs into both transports: the in-process pipes of
// RenderLocal's goroutine workers (farm.Config.WrapConn wraps each
// worker's end) and real TCP (cmd/nowworker's -chaos flag wraps its
// dialed connection). The virtual NOW has no connections to wrap.
package faulty

import (
	"fmt"
	"math/rand"
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
	// Delay sleeps Rule.Delay before delivering the message.
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

	dropped, delayed, corrupted, truncated, severed atomic.Uint64
}

// Snapshot returns the faults injected so far across all connections.
func (p *Plan) Snapshot() Stats {
	return Stats{
		Dropped:   p.dropped.Load(),
		Delayed:   p.delayed.Load(),
		Corrupted: p.corrupted.Load(),
		Truncated: p.truncated.Load(),
		Severed:   p.severed.Load(),
	}
}

// Wrap returns a Conn that injects this plan's faults into c. Protected
// names get c back unchanged. Safe to call from concurrent goroutines;
// each call derives an independent deterministic RNG.
func (p *Plan) Wrap(name string, c msg.Conn) msg.Conn {
	for _, keep := range p.Protect {
		if keep == name {
			return c
		}
	}
	return &conn{
		inner: c,
		plan:  p,
		rng:   rand.New(rand.NewSource(p.Seed ^ int64(fnv64(name)))),
		sent:  make([]int, len(p.Rules)),
		recvd: make([]int, len(p.Rules)),
	}
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

// conn is one faulty connection. The RNG and match counters are guarded
// by mu; Send and Recv themselves may run concurrently.
type conn struct {
	inner msg.Conn
	plan  *Plan

	mu          sync.Mutex
	rng         *rand.Rand
	sent, recvd []int // per-rule match counts by direction

	severed atomic.Bool
}

// decide evaluates the rules for one message and returns the triggered
// rule, if any.
func (c *conn) decide(tag int, d Dir) *Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := c.sent
	if d == RecvOnly {
		counts = c.recvd
	}
	for i := range c.plan.Rules {
		r := &c.plan.Rules[i]
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
		if r.Prob > 0 && c.rng.Float64() < r.Prob {
			return r
		}
	}
	return nil
}

// mangle applies a payload-altering action to a copy of data (the
// original may be shared with the peer on the in-process transport).
func (c *conn) mangle(r *Rule, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]byte(nil), data...)
	switch r.Action {
	case Corrupt:
		// Flip 1-4 bytes at seeded offsets.
		n := 1 + c.rng.Intn(4)
		for i := 0; i < n; i++ {
			out[c.rng.Intn(len(out))] ^= byte(1 + c.rng.Intn(255))
		}
	case Truncate:
		out = out[:c.rng.Intn(len(out))]
	}
	return out
}

// apply performs the rule's action; it returns the (possibly altered)
// message, whether to deliver it, and an error for severed connections.
func (c *conn) apply(r *Rule, m msg.Message) (msg.Message, bool, error) {
	switch r.Action {
	case Drop:
		c.plan.dropped.Add(1)
		return m, false, nil
	case Delay:
		c.plan.delayed.Add(1)
		time.Sleep(r.Delay)
		return m, true, nil
	case Corrupt:
		c.plan.corrupted.Add(1)
		m.Data = c.mangle(r, m.Data)
		return m, true, nil
	case Truncate:
		c.plan.truncated.Add(1)
		m.Data = c.mangle(r, m.Data)
		return m, true, nil
	case Sever:
		c.plan.severed.Add(1)
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
	if r := c.decide(m.Tag, SendOnly); r != nil {
		var deliver bool
		var err error
		if m, deliver, err = c.apply(r, m); err != nil {
			return err
		}
		if !deliver {
			return nil // dropped: pretend it went out
		}
	}
	return c.inner.Send(m)
}

// Recv implements msg.Conn. Dropped incoming messages are skipped, not
// surfaced.
func (c *conn) Recv() (msg.Message, error) {
	for {
		if c.severed.Load() {
			return msg.Message{}, msg.ErrClosed
		}
		m, err := c.inner.Recv()
		if err != nil {
			return msg.Message{}, err
		}
		r := c.decide(m.Tag, RecvOnly)
		if r == nil {
			return m, nil
		}
		var deliver bool
		if m, deliver, err = c.apply(r, m); err != nil {
			return msg.Message{}, err
		}
		if deliver {
			return m, nil
		}
	}
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
