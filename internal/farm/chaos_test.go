package farm

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
)

// The chaos net: render the same animation through a hostile transport
// and demand the same bytes. Every test here but the poison-frame one
// protects worker00, so the farm's contract — "completes correctly with
// at least one live worker" — is exercised rather than vacuously failed.
//
// A test runs its plan on the drivers it names. On the virtual NOW the
// plan meets the same worker names (see workstations) and a run is a
// pure function of its Config, so a virtual row pins its fault counters
// exactly, where a wall-clock row could only bound them. Each row sets
// its own deadlines: a 40x32 frame takes 30-110 ms of virtual time, and a
// message costs the master about 6 ms.

// driver is one way a chaos test renders: RenderLocal's goroutine
// workers on the wall clock, or the virtual NOW.
type driver struct {
	name    string
	virtual bool
}

var (
	local    = driver{"local", false}
	virtual  = driver{"virtual", true}
	bothWays = []driver{local, virtual}
)

// workstations is n speed-1 machines named as RenderLocal names its
// goroutine workers, so a plan's protected names and per-name schedules
// mean the same on either driver.
func workstations(n int) []cluster.Machine {
	ms := cluster.Uniform(n, 1, 0)
	for i := range ms {
		ms[i].Name = fmt.Sprintf("worker%02d", i)
	}
	return ms
}

// chaos renders cfg with n workers on the driver and asserts the frames
// are the fault-free reference's. A virtual run is made twice, the second
// time under a fresh plan of the same rules, and must repeat itself
// exactly: frames, faults, workers and makespan.
func (d driver) chaos(t *testing.T, cfg Config, n int) *Result {
	t.Helper()
	want := referenceFrames(t, cfg.Scene)
	run := RenderLocal
	if d.virtual {
		run = RenderVirtual
	}
	render := func(cfg Config) *Result {
		cfg.Workers, cfg.Machines = n, workstations(n)
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		assertFramesEqual(t, d.name, res.Frames, want)
		return res
	}
	res := render(cfg)
	if d.virtual {
		if p := cfg.Faults; p != nil {
			cfg.Faults = &faulty.Plan{Seed: p.Seed, Rules: p.Rules, Protect: p.Protect}
		}
		again := render(cfg)
		if again.Makespan != res.Makespan || again.Faults != res.Faults || !reflect.DeepEqual(again.Workers, res.Workers) {
			t.Errorf("virtual run did not repeat itself: makespan %v then %v, faults %s then %s",
				res.Makespan, again.Makespan, res.Faults.String(), again.Faults.String())
		}
	}
	return res
}

// pin fails the test unless the plan injected exactly inj and the run
// absorbed exactly faults.
func pin(t *testing.T, res *Result, plan *faulty.Plan, inj faulty.Stats, faults stats.FaultCounters) {
	t.Helper()
	if got := plan.Snapshot(); got != inj || res.Faults != faults {
		t.Errorf("injected %+v, absorbed %#v; want %+v, %#v", got, res.Faults, inj, faults)
	}
}

// soak renders eight coherent frames in 20x16 blocks on four workers of
// each driver through a seeded schedule of drops, corruption,
// truncation, delays and severed connections, with stall deadlines,
// retries and speculation on, and the wire modes and DFB as cfg sets
// them. A virtual row pins what it injected and absorbed; the
// wall-clock row is skipped under -short, and CI runs it with -race.
func soak(t *testing.T, seed int64, cfg Config, drivers []driver, inj faulty.Stats, faults stats.FaultCounters) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			if !d.virtual && testing.Short() {
				t.Skip("wall-clock chaos soak skipped in -short mode")
			}
			plan, err := faulty.ParsePlan(fmt.Sprintf(
				"seed=%d,drop=0.03,corrupt=0.02,truncate=0.02,delay=0.05:2ms,sever=0.005,protect=worker00", seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			cfg.Scene, cfg.W, cfg.H, cfg.Coherence = farmScene(8), fw, fh, true
			cfg.Scheme = partition.Scheme{BlockW: 20, BlockH: 16, Adaptive: true}
			cfg.Heartbeat, cfg.Liveness, cfg.StallTimeout = 20*time.Millisecond, 2*time.Second, 1500*time.Millisecond
			cfg.FrameRetries, cfg.Speculate, cfg.Faults = 2, true, plan
			if d.virtual {
				cfg.Heartbeat = 100 * time.Millisecond
			}
			res := d.chaos(t, cfg, 4)
			// On the wall clock worker00 may render all before the others
			// speak; only master-routed soaks (not DFB's acks) insist.
			if d.virtual {
				pin(t, res, plan, inj, faults)
			} else if cfg.DFB == nil && plan.Snapshot() == (faulty.Stats{}) {
				t.Error("fault plan injected nothing; the soak was vacuous")
			}
			t.Logf("injected %+v; wire %s; farm absorbed %s", plan.Snapshot(), res.Wire, res.Faults.String())
		})
	}
}

// TestChaosSoak drives the full farm through the soak's schedule and
// asserts the output is byte-identical to a fault-free run.
func TestChaosSoak(t *testing.T) {
	t.Run("seed=7", func(t *testing.T) {
		soak(t, 7, Config{}, bothWays, faulty.Stats{Delayed: 1, Corrupted: 1, Truncated: 1}, stats.FaultCounters{
			WorkersLost: 1, MalformedMessages: 1, DuplicatesDropped: 4, FramesRequeued: 5,
			SpeculativeTasks: 1, PingsSent: 9, PongsReceived: 9,
		})
	})
	t.Run("seed=101", func(t *testing.T) {
		soak(t, 101, Config{}, bothWays, faulty.Stats{Delayed: 2, Severed: 1}, stats.FaultCounters{
			WorkersLost: 1, FramesRequeued: 6, SpeculativeTasks: 1, PingsSent: 9, PongsReceived: 9,
		})
	})
}

// TestChaosSeedLivenessGivesUpOnMuteWorker: a worker whose every message
// (including its hello) vanishes must not hold up the run. On the wall
// clock whether the liveness deadline retires it before the other worker
// has rendered everything is a race (TestTickRetiresUnjoinedWorker pins
// the rule on a scripted link); on the virtual NOW the first tick past
// the deadline retires it.
func TestChaosSeedLivenessGivesUpOnMuteWorker(t *testing.T) {
	for _, d := range bothWays {
		t.Run(d.name, func(t *testing.T) {
			plan := &faulty.Plan{
				Seed:    1,
				Rules:   []faulty.Rule{{Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop}},
				Protect: []string{"worker00"},
			}
			cfg := Config{
				Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true, Adaptive: true},
				Heartbeat: 10 * time.Millisecond, Liveness: 300 * time.Millisecond, Faults: plan,
			}
			if d.virtual {
				cfg.Heartbeat = 100 * time.Millisecond
			}
			res := d.chaos(t, cfg, 2)
			if d.virtual {
				pin(t, res, plan, faulty.Stats{Dropped: 1}, stats.FaultCounters{
					WorkersLost: 1, HeartbeatTimeouts: 1, PingsSent: 3, PongsReceived: 2,
				})
			}
		})
	}
}

// TestChaosStallRetiresSilentTaskHolder: a worker that stays reachable
// (answers pings) but whose results all vanish holds its task forever;
// only the stall deadline can see that, and must requeue its frames. On
// the virtual NOW every hello is in at t=0, so the silent worker holds
// one of the scheme's initial tasks.
func TestChaosStallRetiresSilentTaskHolder(t *testing.T) {
	plan := &faulty.Plan{
		Seed: 1,
		Rules: []faulty.Rule{
			{Tag: TagFrameDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
			{Tag: TagTaskDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
			{Tag: TagTruncateAck, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
		},
		Protect: []string{"worker00"},
	}
	res := virtual.chaos(t, Config{
		Scene: farmScene(6), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true, Adaptive: true},
		Heartbeat:    100 * time.Millisecond,
		Liveness:     10 * time.Second, // pongs flow; isolate the stall path
		StallTimeout: 600 * time.Millisecond,
		Faults:       plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Dropped: 5}, stats.FaultCounters{
		WorkersLost: 1, StallTimeouts: 1, FramesRequeued: 3, PingsSent: 15, PongsReceived: 14,
	})
}

// TestChaosLostTaskNeedsStallDeadline: a task lost on its way in leaves
// its holder idle and answering pings, so only the stall deadline can
// reclaim it. Without one the virtual NOW fails as idle once every
// deadline a tick could act on has passed, instead of ticking for ever.
func TestChaosLostTaskNeedsStallDeadline(t *testing.T) {
	lost := func() *faulty.Plan {
		return &faulty.Plan{
			Rules:   []faulty.Rule{{Tag: TagTask, Dir: faulty.RecvOnly, After: 1, Action: faulty.Drop}},
			Protect: []string{"worker00"},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := RenderVirtual(Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true}, Ctx: ctx,
		Workers: 2, Machines: workstations(2), Heartbeat: 100 * time.Millisecond, Faults: lost(),
	})
	if err == nil || !strings.Contains(err.Error(), "idle") {
		t.Fatalf("run without a stall deadline ended with %v; want the idle error", err)
	}
	plan := lost()
	res := virtual.chaos(t, Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
		Heartbeat: 100 * time.Millisecond, StallTimeout: 600 * time.Millisecond, Faults: plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Dropped: 1}, stats.FaultCounters{
		WorkersLost: 1, StallTimeouts: 1, FramesRequeued: 2, PingsSent: 14, PongsReceived: 13,
	})
}

// TestChaosQuarantinePoisonFrame: every worker's connection severs
// while delivering its first frame result, so the single frame of this
// animation kills whoever touches it. With a retry budget of 1 the
// second death exhausts the budget and the master must render the
// frame locally — with pixels identical to what the farm would have
// produced — even though no worker survives. The scenario is symmetric
// (no protected worker), so it is deterministic under any hello order:
// the frame goes to one worker, kills it, is requeued to the other,
// kills it too, and the quarantine render completes the run before the
// all-workers-lost check can fail it.
func TestChaosQuarantinePoisonFrame(t *testing.T) {
	for _, d := range bothWays {
		t.Run(d.name, func(t *testing.T) {
			plan := &faulty.Plan{
				Seed:  1,
				Rules: []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Sever}},
			}
			res := d.chaos(t, Config{
				Scene: farmScene(1), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
				FrameRetries: 1, Faults: plan,
			}, 2)
			pin(t, res, plan, faulty.Stats{Severed: 2}, stats.FaultCounters{WorkersLost: 2, FramesRequeued: 1, FramesQuarantined: 1})
		})
	}
}

// TestChaosSpeculationCoversStraggler: one worker's frame results are
// each held back a second, so the fast worker runs dry and must
// speculatively re-render the straggler's remaining frames; first
// delivery wins and the run finishes without waiting out the delays.
func TestChaosSpeculationCoversStraggler(t *testing.T) {
	plan := &faulty.Plan{
		Seed:    1,
		Rules:   []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Delay, Delay: time.Second}},
		Protect: []string{"worker00"},
	}
	res := virtual.chaos(t, Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
		Speculate: true, Faults: plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Delayed: 1}, stats.FaultCounters{SpeculativeTasks: 1})
	if res.Makespan >= time.Second {
		t.Errorf("makespan %v: the run waited out the straggler's delays", res.Makespan)
	}
}

// TestChaosCorruptionRetiresSender: a corrupted frame result fails the
// CRC at decode; the master must retire the sender as malformed, requeue
// its frames on the survivor, and still produce correct output.
func TestChaosCorruptionRetiresSender(t *testing.T) {
	plan := &faulty.Plan{
		Seed:    3,
		Rules:   []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Corrupt}},
		Protect: []string{"worker00"},
	}
	res := virtual.chaos(t, Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true}, Faults: plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Corrupted: 1}, stats.FaultCounters{WorkersLost: 1, MalformedMessages: 1, FramesRequeued: 2})
}
