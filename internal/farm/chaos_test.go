package farm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/msg"
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
// truncation, delays and severed connections, with a 400 ms liveness
// deadline (a ping every 100 ms) and speculation on, and the wire modes
// and DFB as cfg sets them. A virtual row pins what it injected and absorbed; the
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
			cfg.Liveness, cfg.Speculate, cfg.Faults = 400*time.Millisecond, true, plan
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
				Liveness: 300 * time.Millisecond, Faults: plan,
			}
			res := d.chaos(t, cfg, 2)
			if d.virtual {
				pin(t, res, plan, faulty.Stats{Dropped: 1}, stats.FaultCounters{
					WorkersLost: 1, HeartbeatTimeouts: 1, PingsSent: 4, PongsReceived: 3,
				})
			}
		})
	}
}

// TestChaosStallRetiresSilentTaskHolder: a worker that stays reachable
// (answers pings) but whose results all vanish holds its task forever;
// only the progress half of the liveness deadline can see that, and must
// requeue its frames. On the virtual NOW every hello is in at t=0, so
// the silent worker holds one of the scheme's initial tasks.
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
		Liveness: 600 * time.Millisecond, Faults: plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Dropped: 5}, stats.FaultCounters{
		WorkersLost: 1, StallTimeouts: 1, FramesRequeued: 3, PingsSent: 10, PongsReceived: 10,
	})
}

// TestChaosLostTaskNeedsStallDeadline: a task lost on its way in leaves
// its holder idle and answering pings, so only the progress half of the
// liveness deadline can reclaim it. With the deadline off the virtual
// NOW has nothing left to wait for and fails as idle.
func TestChaosLostTaskNeedsStallDeadline(t *testing.T) {
	lost := func() *faulty.Plan {
		return &faulty.Plan{
			Rules:   []faulty.Rule{{Tag: TagTask, Dir: faulty.RecvOnly, After: 1, Action: faulty.Drop}},
			Protect: []string{"worker00"},
		}
	}
	_, err := RenderVirtual(Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
		Workers: 2, Machines: workstations(2), Faults: lost(),
	})
	if err == nil || !strings.Contains(err.Error(), "idle") {
		t.Fatalf("run without a liveness deadline ended with %v; want the idle error", err)
	}
	plan := lost()
	res := virtual.chaos(t, Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
		Liveness: 600 * time.Millisecond, Faults: plan,
	}, 2)
	pin(t, res, plan, faulty.Stats{Dropped: 1}, stats.FaultCounters{
		WorkersLost: 1, StallTimeouts: 1, FramesRequeued: 2, PingsSent: 10, PongsReceived: 9,
	})
}

// watchedLink is the virtual NOW noting when the master last sent each
// worker a task and when it detached each.
type watchedLink struct {
	*virtualLink
	tasked, detached map[string]time.Duration
}

func (l *watchedLink) Send(to string, m msg.Message) error {
	if m.Tag == TagTask {
		l.tasked[to] = l.Now()
	}
	return l.virtualLink.Send(to, m)
}

func (l *watchedLink) Detach(name string) {
	l.detached[name] = l.Now()
	l.virtualLink.Detach(name)
}

// TestChaosOneDeadlineRetiresMuteAndStalledWorkers: the one Liveness
// deadline D catches, in one run, both failures it took two timers to
// catch before. worker02's hello is lost, so it is mute from t=0;
// worker01's first task is lost on its way in, so it idles answering
// pings. Ticks fall every D/4, so each is retired within D + D/4 of
// going quiet: worker02 as silent, worker01 as stalled, counted from
// the task it never got. With D = 0 the link has no tick to hand out
// (and TestMuteWorkerDoesNotHangHeartbeatlessRun sees no ping).
func TestChaosOneDeadlineRetiresMuteAndStalledWorkers(t *testing.T) {
	const d = 600 * time.Millisecond
	plan := &faulty.Plan{
		Seed: 1, // worker02's hello draws below 0.5, worker01's does not
		Rules: []faulty.Rule{
			{Tag: TagHello, Dir: faulty.SendOnly, Prob: 0.5, Action: faulty.Drop},
			{Tag: TagTask, Dir: faulty.RecvOnly, After: 1, Action: faulty.Drop},
		},
		Protect: []string{"worker00"},
	}
	cfg := Config{
		Scene: farmScene(4), W: fw, H: fh, Scheme: partition.Scheme{Sequence: true},
		Machines: workstations(3), Liveness: d, Faults: plan,
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	vl, err := newVirtualLink(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := &watchedLink{virtualLink: vl, tasked: map[string]time.Duration{}, detached: map[string]time.Duration{}}
	res, err := runMaster(cfg, ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "one-deadline", res.Frames, referenceFrames(t, cfg.Scene))
	pin(t, res, plan, faulty.Stats{Dropped: 2}, stats.FaultCounters{
		WorkersLost: 2, HeartbeatTimeouts: 1, StallTimeouts: 1, FramesRequeued: 1, PingsSent: 9, PongsReceived: 9,
	})
	for name, quiet := range map[string]time.Duration{"worker02": 0, "worker01": ln.tasked["worker01"]} {
		if at, ok := ln.detached[name]; !ok || at <= quiet+d || at > quiet+d+d/4 {
			t.Errorf("%s went quiet at %v and was retired at %v (ok %v); want within (D, D+D/4] of it", name, quiet, at, ok)
		}
	}
	if off, _ := newVirtualLink(&Config{Machines: workstations(1)}); off.every != 0 {
		t.Errorf("with D = 0 the virtual NOW ticks every %v", off.every)
	}
}

// TestChaosQuarantinePoisonFrame: every worker's connection severs
// while delivering its first frame result, so the single frame of this
// animation kills whoever touches it. With the retry budget of 3 the
// fourth death exhausts it and the master must render the frame locally
// — with pixels identical to what the farm would have produced — even
// though no worker survives. The scenario is symmetric (no protected
// worker), so it is deterministic under any hello order: the frame goes
// to one worker, kills it, is requeued to the next, and so on to the
// fourth, and the quarantine render completes the run before the
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
				Faults: plan,
			}, frameRetries+1)
			pin(t, res, plan, faulty.Stats{Severed: 4}, stats.FaultCounters{WorkersLost: 4, FramesRequeued: 3, FramesQuarantined: 1})
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
