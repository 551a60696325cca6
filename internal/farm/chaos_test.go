package farm

import (
	"fmt"
	"testing"
	"time"

	"nowrender/internal/faulty"
	"nowrender/internal/partition"
)

// The chaos net: render the same animation through a hostile transport
// and demand the same bytes. Every test here protects worker00, so the
// farm's contract — "completes correctly with at least one live worker"
// — is exercised rather than vacuously failed.

// TestChaosSoak drives the full local farm through a probabilistic fault
// schedule (drops, corruption, truncation, delays, severed connections)
// and asserts the output is byte-identical to a fault-free run. Seeded,
// so a failure reproduces exactly. Skipped under -short; CI runs it with
// -race.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	sc := farmScene(8)
	want := referenceFrames(t, sc)
	for _, seed := range []int64{7, 101} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := fmt.Sprintf(
				"seed=%d,drop=0.03,corrupt=0.02,truncate=0.02,delay=0.05:2ms,sever=0.005,protect=worker00", seed)
			plan, err := faulty.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := renderLocal(Config{
				Scene: sc, W: fw, H: fh, Coherence: true, Workers: 4,
				Scheme:       partition.FrameDivision{BlockW: 20, BlockH: 16, Adaptive: true},
				Heartbeat:    20 * time.Millisecond,
				Liveness:     2 * time.Second,
				StallTimeout: 1500 * time.Millisecond,
				FrameRetries: 2,
				Speculate:    true,
				WrapConn:     plan.Wrap,
			}, checked(t))
			if err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			assertFramesEqual(t, "chaos", res.Frames, want)
			inj := plan.Snapshot()
			injected := inj.Dropped + inj.Corrupted + inj.Truncated + inj.Delayed + inj.Severed
			if injected == 0 {
				t.Error("fault plan injected nothing; the soak was vacuous")
			}
			t.Logf("injected %+v; farm absorbed %s", inj, res.Faults.String())
		})
	}
}

// TestChaosSeedLivenessGivesUpOnMuteWorker: a worker whose every message
// (including its hello) vanishes must not hold up the run. Whether the
// liveness deadline retires it before the other worker has rendered
// everything is a race; TestTickRetiresUnjoinedWorker pins that rule on a
// scripted link.
func TestChaosSeedLivenessGivesUpOnMuteWorker(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed:    1,
		Rules:   []faulty.Rule{{Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop}},
		Protect: []string{"worker00"},
	}
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2,
		Scheme:    partition.SequenceDivision{Adaptive: true},
		Heartbeat: 10 * time.Millisecond,
		Liveness:  300 * time.Millisecond,
		WrapConn:  plan.Wrap,
	}, checked(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "mute-worker", res.Frames, want)
}

// TestChaosStallRetiresSilentTaskHolder: a worker that stays reachable
// (answers pings) but whose results all vanish holds its task forever;
// only the stall deadline can see that, and must requeue its frames.
func TestChaosStallRetiresSilentTaskHolder(t *testing.T) {
	sc := farmScene(6)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed: 1,
		Rules: []faulty.Rule{
			{Tag: TagFrameDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
			{Tag: TagTaskDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
			{Tag: TagTruncateAck, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Drop},
		},
		Protect: []string{"worker00"},
	}
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2,
		Scheme:       partition.SequenceDivision{Adaptive: true},
		Heartbeat:    25 * time.Millisecond,
		Liveness:     10 * time.Second, // pongs flow; isolate the stall path
		StallTimeout: 600 * time.Millisecond,
		WrapConn:     plan.Wrap,
	}, joinedFirst(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "stalled-worker", res.Frames, want)
	if res.Faults.StallTimeouts < 1 {
		t.Errorf("StallTimeouts = %d, want >= 1", res.Faults.StallTimeouts)
	}
	if res.Faults.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Faults.WorkersLost)
	}
	if res.Faults.FramesRequeued < 1 {
		t.Errorf("FramesRequeued = %d, want >= 1", res.Faults.FramesRequeued)
	}
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
	sc := farmScene(1)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed:  1,
		Rules: []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Sever}},
	}
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2,
		Scheme:       partition.SequenceDivision{Adaptive: false},
		FrameRetries: 1,
		WrapConn:     plan.Wrap,
	}, checked(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "quarantine", res.Frames, want)
	if res.Faults.FramesQuarantined != 1 {
		t.Errorf("FramesQuarantined = %d, want 1 (faults: %s)",
			res.Faults.FramesQuarantined, res.Faults.String())
	}
	if res.Faults.WorkersLost != 2 {
		t.Errorf("WorkersLost = %d, want 2", res.Faults.WorkersLost)
	}
}

// TestChaosSpeculationCovers a straggler: one worker's frame results are
// heavily delayed, so the fast worker runs dry and must speculatively
// re-render the straggler's remaining frames; first delivery wins and
// the run finishes without waiting out the delays.
func TestChaosSpeculationCoversStraggler(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed:    1,
		Rules:   []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, Prob: 1, Action: faulty.Delay, Delay: time.Second}},
		Protect: []string{"worker00"},
	}
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2,
		Scheme:    partition.SequenceDivision{Adaptive: false},
		Speculate: true,
		WrapConn:  plan.Wrap,
	}, joinedFirst(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "speculation", res.Frames, want)
	if res.Faults.SpeculativeTasks < 1 {
		t.Errorf("SpeculativeTasks = %d, want >= 1 (faults: %s)",
			res.Faults.SpeculativeTasks, res.Faults.String())
	}
}

// TestChaosCorruptionRetiresSender: a corrupted frame result fails the
// CRC at decode; the master must retire the sender as malformed, requeue
// its frames on the survivor, and still produce correct output.
func TestChaosCorruptionRetiresSender(t *testing.T) {
	sc := farmScene(4)
	want := referenceFrames(t, sc)
	plan := &faulty.Plan{
		Seed:    3,
		Rules:   []faulty.Rule{{Tag: TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Corrupt}},
		Protect: []string{"worker00"},
	}
	res, err := renderLocal(Config{
		Scene: sc, W: fw, H: fh, Workers: 2,
		Scheme:   partition.SequenceDivision{Adaptive: false},
		WrapConn: plan.Wrap,
	}, joinedFirst(t))
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "corruption", res.Frames, want)
	if res.Faults.MalformedMessages != 1 {
		t.Errorf("MalformedMessages = %d, want 1", res.Faults.MalformedMessages)
	}
	if res.Faults.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.Faults.WorkersLost)
	}
}
