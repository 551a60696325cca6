package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
)

// small returns reduced-size parameters so the tests run in seconds; the
// shape assertions are the same ones the paper's full-size table obeys.
// Blocks are 30x20, the smallest at which a steady block frame costs the
// testbed's fast machine more than the message carrying it costs the
// master and the bus (10.8 against 8.4 ms). The quarter-scale 20x20
// blocks cost 7.2 against 7.9 ms, and there the master's messages, not
// the techniques, rank the columns: (8) falls behind (6), 3.30x against
// 3.86x.
func small(t *testing.T) Params {
	t.Helper()
	return Params{Scene: scenes.Newton(30), W: 60, H: 80, BlockW: 30, BlockH: 20}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	r := res.Rows
	// Baseline is speedup 1 by construction.
	if r[0].Speedup < 0.99 || r[0].Speedup > 1.01 {
		t.Errorf("baseline speedup = %v", r[0].Speedup)
	}
	// Coherence reduces rays substantially (paper: ~5x).
	if res.RayReduction < 1.5 {
		t.Errorf("ray reduction %vx; coherence not engaging", res.RayReduction)
	}
	// Column ordering of total times: single is slowest, dist+FC modes
	// fastest — "who wins" must match the paper.
	if !(r[1].Total < r[0].Total) {
		t.Errorf("single+FC (%v) not faster than single (%v)", r[1].Total, r[0].Total)
	}
	if !(r[2].Total < r[0].Total) {
		t.Errorf("distributed (%v) not faster than single (%v)", r[2].Total, r[0].Total)
	}
	if !(r[3].Total < r[1].Total && r[3].Total < r[2].Total) {
		t.Errorf("dist+FC seq (%v) not faster than both individual techniques", r[3].Total)
	}
	if !(r[4].Total <= r[3].Total) {
		t.Errorf("frame div (%v) slower than seq div (%v); paper has frame div winning", r[4].Total, r[3].Total)
	}
	// Combined speedup is at least roughly multiplicative.
	if res.Multiplicative < 0.7 {
		t.Errorf("combined speedup far below multiplicative: %v", res.Multiplicative)
	}
	// First-frame overhead is a modest share (paper: 12%).
	if res.FirstFrameOverhead < 0 || res.FirstFrameOverhead > 0.6 {
		t.Errorf("first-frame overhead = %.1f%%", 100*res.FirstFrameOverhead)
	}
	// Render doesn't blow up and mentions every row.
	s := res.Render()
	for _, row := range r {
		if !strings.Contains(s, row.Label) {
			t.Errorf("rendered table missing %q", row.Label)
		}
	}
}

func TestFigure2(t *testing.T) {
	p := Params{Scene: scenes.Bouncing(8), W: 48, H: 64}
	res, err := Figure2(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Actual.Count() == 0 {
		t.Error("no actual differences; animation static?")
	}
	if !res.Predicted.Covers(res.Actual) {
		t.Error("predicted mask does not cover actual differences")
	}
	// The paper's striking feature: most pixels do NOT change.
	if res.Actual.Fraction() > 0.6 {
		t.Errorf("%.0f%% pixels changed; scene not coherence-friendly", 100*res.Actual.Fraction())
	}
}

func TestFigure4(t *testing.T) {
	lines := Figure4(240, 320, 120, 4)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "seq div") || !strings.Contains(joined, "frame div") {
		t.Errorf("figure 4 output missing schemes:\n%s", joined)
	}
	// 4 seq tasks + 4 frame-div tasks + 2 headers = 10 lines.
	if len(lines) != 10 {
		t.Errorf("%d lines:\n%s", len(lines), joined)
	}
}

func TestAblationBlockSize(t *testing.T) {
	res, err := AblationBlockSize(small(t), []int{10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.Makespan <= 0 {
			t.Errorf("%s: zero makespan", r.Label)
		}
	}
}

func TestAblationGridResolution(t *testing.T) {
	res, err := AblationGridResolution(small(t), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Finer grids re-render at most as many pixels as coarse ones
	// (tighter change prediction).
	if res[1].Rendered > res[0].Rendered {
		t.Errorf("finer grid rendered more pixels: %d vs %d", res[1].Rendered, res[0].Rendered)
	}
}

func TestAblationJevansBlocks(t *testing.T) {
	res, err := AblationJevansBlocks(small(t), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Per-pixel granularity re-renders no more than block granularity —
	// the paper's argument for fine granularity.
	if res[0].Rendered > res[1].Rendered {
		t.Errorf("per-pixel rendered more than blocks: %d vs %d", res[0].Rendered, res[1].Rendered)
	}
}

func TestAblationAdaptive(t *testing.T) {
	res, err := AblationAdaptive(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	// Adaptive must not be slower than static on the heterogeneous
	// testbed (it may tie on tiny workloads).
	if res[1].Makespan > res[0].Makespan*11/10 {
		t.Errorf("adaptive (%v) notably slower than static (%v)", res[1].Makespan, res[0].Makespan)
	}
}

func TestAblationShadowCoherence(t *testing.T) {
	res, err := AblationShadowCoherence(small(t))
	if err != nil {
		t.Fatal(err)
	}
	on, off := res[0], res[1]
	if !strings.Contains(on.Detail, "wrong pixels vs full render: 0") {
		t.Errorf("shadow registration on must be exact: %s", on.Detail)
	}
	// Disabling shadow registration renders fewer pixels (cheaper) —
	// that is its only appeal.
	if off.Rendered > on.Rendered {
		t.Errorf("disabling shadow registration did not reduce work: %d vs %d",
			off.Rendered, on.Rendered)
	}
}

func TestScaling(t *testing.T) {
	p := small(t)
	pts, err := Scaling(p, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Errorf("base speedup = %v", pts[0].Speedup)
	}
	// More machines must not be slower.
	if pts[2].Makespan > pts[0].Makespan {
		t.Errorf("4 machines (%v) slower than 1 (%v)", pts[2].Makespan, pts[0].Makespan)
	}
}

func TestAblationWeighted(t *testing.T) {
	res, err := AblationWeighted(small(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	// Weighted static must beat plain static on the heterogeneous
	// testbed (that is its whole purpose).
	plainStatic, weightedStatic := res[0], res[2]
	if weightedStatic.Makespan >= plainStatic.Makespan {
		t.Errorf("weighted static (%v) not faster than plain static (%v)",
			weightedStatic.Makespan, plainStatic.Makespan)
	}
}

// heldMB is what a machine of the virtual NOW holds, in MB, at the end of
// a task over region and all of p's frames: the frames' geometry and,
// with coherence, the engine (its region framebuffer included) and its
// Range (coherence.Frames.WorkingSet), or without, the task's region
// framebuffer — what the farm's frame step charges.
func heldMB(t *testing.T, p Params, region fb.Rect, coherent bool) float64 {
	t.Helper()
	opts := coherence.Options{Threads: 1}
	r, err := coherence.NewRange(p.Scene, 0, p.Scene.Frames, opts)
	if err != nil {
		t.Fatal(err)
	}
	var e *coherence.Engine
	if coherent {
		if e, err = r.NewEngine(p.W, p.H, region, opts); err != nil {
			t.Fatal(err)
		}
	}
	for f := range p.Scene.Frames {
		if e != nil {
			_, err = e.Render(f)
		} else {
			_, err = r.Frames().At(f)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	n := r.Frames().WorkingSet(e)
	if e == nil {
		n += 3 * region.Area()
	}
	return float64(n) / (1 << 20)
}

// TestAblationMemory squeezes every machine to 1 MB, chosen from what the
// tasks hold at the end: a whole-frame coherent task over these twelve
// 144x192 frames 1.34 MB, a 48x48 block's 0.13 MB, a plain task 0.15 MB.
// (At 120x160 a whole frame held 1.02 MB once an engine kept its region
// instead of a second frame: too close to the squeeze for most of its
// frames to swap.)
func TestAblationMemory(t *testing.T) {
	const squeezeMB = 1
	p := Params{Scene: scenes.Newton(12), W: 144, H: 192, BlockW: 48, BlockH: 48}
	whole, block := fb.NewRect(0, 0, p.W, p.H), fb.NewRect(0, 0, p.BlockW, p.BlockH)
	w, b, plain := heldMB(t, p, whole, true), heldMB(t, p, block, true), heldMB(t, p, whole, false)
	t.Logf("a whole frame holds %.2f MB, a block %.2f, a plain task %.2f", w, b, plain)
	if w <= squeezeMB || b > squeezeMB || plain > squeezeMB {
		t.Fatalf("%d MB does not split a whole frame from a block and a plain task", squeezeMB)
	}
	unconstrained, err := AblationMemory(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := AblationMemory(p, squeezeMB)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unlimited: FC %.2fx dist %.2fx combined %.2fx vs product %+.1f%%", unconstrained.SingleFCSpeedup,
		unconstrained.DistSpeedup, unconstrained.CombinedSpeedup, 100*(unconstrained.Multiplicative-1))
	t.Logf("%d MB: FC %.2fx dist %.2fx combined %.2fx vs product %+.1f%%", squeezeMB, constrained.SingleFCSpeedup,
		constrained.DistSpeedup, constrained.CombinedSpeedup, 100*(constrained.Multiplicative-1))
	// Memory pressure hurts single-machine coherence but not the
	// distributed blocks, making the combination super-multiplicative
	// relative to the unconstrained case (the paper's aggregate-memory
	// argument for its +18.5%).
	if constrained.SingleFCSpeedup >= unconstrained.SingleFCSpeedup {
		t.Errorf("memory pressure did not slow single-machine FC: %v vs %v",
			constrained.SingleFCSpeedup, unconstrained.SingleFCSpeedup)
	}
	if constrained.Multiplicative <= unconstrained.Multiplicative {
		t.Errorf("constrained multiplicative (%v) not above unconstrained (%v)",
			constrained.Multiplicative, unconstrained.Multiplicative)
	}
	if constrained.Multiplicative <= 1 {
		t.Errorf("no super-multiplicative effect under memory pressure: %v",
			constrained.Multiplicative)
	}
}

func TestTable1CSV(t *testing.T) {
	res, err := Table1(Params{Scene: scenes.Newton(4), W: 40, H: 52, BlockW: 20, BlockH: 26})
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "configuration,rays,first_frame_s") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// header + 5 rows + 3 derived comments.
	if len(lines) != 9 {
		t.Errorf("CSV has %d lines:\n%s", len(lines), csv)
	}
}

// The ledger's medians beside which the cost table was fitted: makespan_s
// of `bash bench/run.sh --workload W --seed 1 --seconds 14 --trace 0`,
// eight runs of each workload on one core of a 2-vCPU Intel Xeon VM,
// 2026-10-15 (EXPERIMENTS.md, "The virtual clock, fitted"). On the
// ledger's one core the farm's makespan is its two workers' and its
// master's work laid end to end.
const (
	ledgerPlainS = 0.3797
	ledgerFCS    = 0.1197
	ledgerFarmS  = 0.1290
)

// TestCostModelPredictsLedger: the fitted cost table predicts the
// ledger's two work ratios, coherence over brute force and the farm over
// brute force, within 15 %. The virtual runs render what the ledger
// renders — Newton's frames [1, 61) at 120x160, the farm in adaptive
// 40x40 blocks on two speed-1 machines with delta and span-coded results
// — and a run's work is what its machines were busy plus what its master
// spent on messages: every hello, result, task done and truncate ack the
// run sends (the master stops before the last task done arrives, one
// message in 62 or 736 that this counts and the virtual run does not).
func TestCostModelPredictsLedger(t *testing.T) {
	cost := cluster.DefaultCostModel()
	work := func(res *farm.Result) float64 {
		var busy time.Duration
		for _, w := range res.Workers {
			busy += w.Busy
		}
		msgs := len(res.Workers) + int(res.Wire.FramesFull+res.Wire.FramesDelta) + res.TasksExecuted + res.Subdivisions
		return busy.Seconds() + float64(msgs)*cost.SecPerMessage
	}
	plainCfg := farm.Config{Scene: scenes.Newton(90), W: 120, H: 160, StartFrame: 1, EndFrame: 61,
		Machines: cluster.Uniform(1, 1, 0), Scheme: partition.SequenceDivision{}} // one machine, one task
	fcCfg := plainCfg
	fcCfg.Coherence = true
	farmCfg := fcCfg
	farmCfg.Machines = cluster.Uniform(2, 1, 0)
	farmCfg.Scheme = partition.FrameDivision{BlockW: 40, BlockH: 40, Adaptive: true}
	farmCfg.WireDelta, farmCfg.WireSpanCodec = true, true

	plain, err := farm.RenderVirtual(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := farm.RenderVirtual(fcCfg)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := farm.RenderVirtual(farmCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"newton-fc/newton-plain", work(fc) / work(plain), ledgerFCS / ledgerPlainS},
		{"newton-fc-farm/newton-plain", work(fm) / work(plain), ledgerFarmS / ledgerPlainS},
	} {
		t.Logf("%s: predicted %.4f, ledger %.4f", c.name, c.got, c.want)
		if math.Abs(c.got/c.want-1) > 0.15 {
			t.Errorf("%s: the cost table predicts %.4f, the ledger measured %.4f: more than 15 %% apart", c.name, c.got, c.want)
		}
	}
}
