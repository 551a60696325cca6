package partition

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nowrender/internal/fb"
)

// The presets of the package doc; 80x80 is the paper's block.
var (
	seqDiv    = Scheme{Sequence: true, Adaptive: true}
	seqStatic = Scheme{Sequence: true}
	frameDiv  = Scheme{BlockW: 80, BlockH: 80, Adaptive: true}
	hybrid    = Scheme{BlockW: 80, BlockH: 80, Sequence: true}
	pixelDiv  = Scheme{BlockW: 1, BlockH: 1}
	weighted  = Scheme{Sequence: true, Weights: []float64{2, 1, 1}, Adaptive: true}
)

// tile returns s's initial tasks after checking that they tile the
// animation.
func tile(t *testing.T, s Scheme, w, h, start, end, workers int) []Task {
	t.Helper()
	tasks := s.InitialTasks(w, h, start, end, workers)
	if err := ValidateTiling(tasks, w, h, start, end); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return tasks
}

// lengths lists each task's frame count.
func lengths(tasks []Task) []int {
	var n []int
	for _, t := range tasks {
		n = append(n, t.Frames())
	}
	return n
}

// same is n frame counts of f frames each.
func same(f, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// pinLengths checks that s tiles frames [start, end) into tasks of the
// given frame counts, in order.
func pinLengths(t *testing.T, s Scheme, w, h, start, end, workers int, want ...int) []Task {
	t.Helper()
	tasks := tile(t, s, w, h, start, end, workers)
	if got := lengths(tasks); !slices.Equal(got, want) {
		t.Errorf("%s over [%d,%d) on %d workers: frames %v, want %v", s.Name(), start, end, workers, got, want)
	}
	return tasks
}

func TestSequenceDivisionInitialTasks(t *testing.T) {
	// The paper's example: 4 processors, 120 frames -> 30 frames each,
	// consecutive (required for coherence) and whole-frame.
	tasks := pinLengths(t, seqDiv, 240, 320, 0, 120, 4, 30, 30, 30, 30)
	for i, task := range tasks {
		if task.Region != fb.NewRect(0, 0, 240, 320) || task.StartFrame != 30*i || task.ID != i {
			t.Errorf("task %d = %v, want the full frame over [%d,%d)", i, task, 30*i, 30*i+30)
		}
	}
}

func TestSequenceDivisionUnevenFrames(t *testing.T) {
	// The Newton run: 45 frames, 3 machines; and ShardMap's rounding
	// when the frames do not divide.
	pinLengths(t, seqStatic, 10, 10, 0, 45, 3, 15, 15, 15)
	pinLengths(t, seqStatic, 10, 10, 2, 12, 4, 2, 3, 2, 3)
}

func TestSequenceDivisionMoreWorkersThanFrames(t *testing.T) {
	pinLengths(t, seqStatic, 4, 4, 0, 2, 8, 1, 1)
}

// TestSequenceSubdivide: an adaptive preset halves a task's frames (the
// first half kept), a static one and a one-frame task never split, and
// the region never changes.
func TestSequenceSubdivide(t *testing.T) {
	task := Task{ID: 0, Region: fb.NewRect(0, 0, 80, 80), StartFrame: 10, EndFrame: 20}
	for _, s := range []Scheme{seqDiv, frameDiv, weighted} {
		keep, give, ok := s.Subdivide(task)
		if !ok || keep.StartFrame != 10 || keep.EndFrame != 15 || give.StartFrame != 15 || give.EndFrame != 20 ||
			keep.Region != task.Region || give.Region != task.Region {
			t.Errorf("%s: split = %v | %v ok=%v", s.Name(), keep, give, ok)
		}
		if _, _, ok := s.Subdivide(Task{StartFrame: 3, EndFrame: 4}); ok {
			t.Errorf("%s: single-frame task subdivided", s.Name())
		}
	}
	for _, s := range []Scheme{seqStatic, hybrid, pixelDiv, {Sequence: true, Weights: []float64{2, 1}}} {
		if keep, _, ok := s.Subdivide(task); ok || keep != task {
			t.Errorf("%s: static scheme subdivided", s.Name())
		}
	}
}

func TestFrameDivisionPaperCase(t *testing.T) {
	// 240x320 with 80x80 blocks = 3x4 = 12 subareas, each over the whole
	// sequence, row-major.
	tasks := pinLengths(t, frameDiv, 240, 320, 0, 45, 3, same(45, 12)...)
	for i, task := range tasks {
		if want := fb.NewRect(80*(i%3), 80*(i/3), 80*(i%3)+80, 80*(i/3)+80); task.Region != want {
			t.Errorf("task %d region %v, want %v", i, task.Region, want)
		}
	}
}

func TestFrameDivisionQuarterFrame(t *testing.T) {
	// The paper's 4-processor example: each renders 120x160 of each frame.
	pinLengths(t, Scheme{BlockW: 120, BlockH: 160}, 240, 320, 0, 120, 4, 120, 120, 120, 120)
}

func TestFrameDivisionDefaultsToWholeFrame(t *testing.T) {
	// The zero Scheme is one task: the whole frame over the whole
	// sequence, whatever the worker count.
	for _, workers := range []int{0, 2} {
		tasks := Scheme{}.InitialTasks(100, 50, 0, 7, workers)
		if len(tasks) != 1 || tasks[0] != (Task{Region: fb.NewRect(0, 0, 100, 50), EndFrame: 7}) {
			t.Errorf("%d workers: tasks = %v", workers, tasks)
		}
	}
}

func TestFrameDivisionSubdivide(t *testing.T) {
	task := Task{Region: fb.NewRect(0, 0, 80, 80), StartFrame: 0, EndFrame: 45}
	keep, give, ok := frameDiv.Subdivide(task)
	if !ok || keep.Frames() != 22 || give.Frames() != 23 {
		t.Errorf("split %v | %v ok=%v", keep, give, ok)
	}
}

// TestHybridDivision: on Newton's 45 frames with 3 machines, the CLI's
// and the service's default, the hybrid cuts one 15-frame subsequence per
// worker and tiles each with every block: 4 blocks x 3 subsequences.
func TestHybridDivision(t *testing.T) {
	s := Scheme{BlockW: 120, BlockH: 160, Sequence: true}
	tasks := pinLengths(t, s, 240, 320, 0, 45, 3, same(15, 12)...)
	for i, task := range tasks {
		if task.StartFrame != 15*(i/4) || task.Region.Area() != 120*160 {
			t.Errorf("task %d = %v, want block %d of the subsequence from %d", i, task, i%4, 15*(i/4))
		}
	}
	if s.Name() != "hybrid (120x160)" {
		t.Errorf("name %q", s.Name())
	}
}

func TestHybridUnevenChunk(t *testing.T) {
	// 25 frames over 3 workers cut 8/8/9, each a 2x1-block subsequence.
	pinLengths(t, Scheme{BlockW: 25, BlockH: 50, Sequence: true}, 50, 50, 0, 25, 3, 8, 8, 8, 8, 9, 9)
}

func TestPixelDivision(t *testing.T) {
	tasks := pinLengths(t, pixelDiv, 6, 4, 0, 3, 2, same(3, 24)...)
	for i, task := range tasks {
		if task.Region != fb.NewRect(i%6, i/6, i%6+1, i/6+1) {
			t.Errorf("task %d region %v, want pixel (%d,%d)", i, task.Region, i%6, i/6)
		}
	}
	if pixelDiv.Name() != "frame div (1x1)" {
		t.Errorf("name %q", pixelDiv.Name())
	}
}

func TestTaskAccessors(t *testing.T) {
	task := Task{ID: 4, Region: fb.NewRect(0, 0, 80, 80), StartFrame: 5, EndFrame: 15}
	if task.Frames() != 10 || task.String() != "task 4: [0,80)x[0,80) frames [5,15)" {
		t.Errorf("Frames=%d String=%q", task.Frames(), task)
	}
}

// TestSchemeNames: the report strings `now tables` prints and EXPERIMENTS.md
// quotes.
func TestSchemeNames(t *testing.T) {
	for _, c := range []struct {
		s    Scheme
		want string
	}{
		{seqDiv, "seq div (adaptive)"}, {seqStatic, "seq div (static)"},
		{frameDiv, "frame div (80x80)"}, {hybrid, "hybrid (80x80)"},
		{weighted, "weighted seq div (adaptive)"}, {Scheme{Sequence: true, Weights: []float64{1}}, "weighted seq div (static)"},
	} {
		if got := c.s.Name(); got != c.want {
			t.Errorf("%+v: name %q, want %q", c.s, got, c.want)
		}
	}
}

// TestParse: every name a service job spec accepts maps to its preset,
// and anything else is refused.
func TestParse(t *testing.T) {
	for name, want := range map[string]Scheme{
		"seqdiv": seqDiv, "seqdiv-static": seqStatic, "framediv": frameDiv,
		"hybrid": hybrid, "pixeldiv": pixelDiv,
	} {
		got, err := Parse(name, 80, 80)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "seqdiv-weighted", "FrameDiv"} {
		if _, err := Parse(name, 80, 80); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("Parse(%q) = %v, want an unknown-scheme error", name, err)
		}
	}
}

func TestValidateTilingCatchesOverlap(t *testing.T) {
	full := fb.NewRect(0, 0, 4, 4)
	tasks := []Task{
		{ID: 0, Region: full, StartFrame: 0, EndFrame: 2},
		{ID: 1, Region: full, StartFrame: 1, EndFrame: 3}, // overlaps frame 1
	}
	if err := ValidateTiling(tasks, 4, 4, 0, 3); err == nil {
		t.Error("overlap not caught")
	}
}

func TestValidateTilingCatchesGap(t *testing.T) {
	tasks := []Task{
		{ID: 0, Region: fb.NewRect(0, 0, 2, 4), StartFrame: 0, EndFrame: 2},
		// right half missing
	}
	if err := ValidateTiling(tasks, 4, 4, 0, 2); err == nil {
		t.Error("gap not caught")
	}
	// A frame no task reaches.
	tasks = []Task{{ID: 0, Region: fb.NewRect(0, 0, 4, 4), StartFrame: 0, EndFrame: 1}}
	if err := ValidateTiling(tasks, 4, 4, 0, 2); err == nil || !strings.Contains(err.Error(), "frame 1") {
		t.Errorf("missing frame 1: %v", err)
	}
}

// TestValidateTilingCatchesOutOfFrameGap: two regions whose areas sum to
// the frame's, one of them sticking out past its edge, leave row 2
// uncovered.
func TestValidateTilingCatchesOutOfFrameGap(t *testing.T) {
	tasks := []Task{
		{ID: 0, Region: fb.NewRect(0, 0, 4, 2), EndFrame: 1},
		{ID: 1, Region: fb.NewRect(0, 3, 4, 5), EndFrame: 1},
	}
	if err := ValidateTiling(tasks, 4, 4, 0, 1); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("a region past the frame's edge: %v", err)
	}
}

// TestValidateTilingPixelTiling: nowrender -scheme pixeldiv at its
// default 240x320 over Newton's 45 frames is 76,800 tasks; the master
// checks their tiling on every run, so the check must be linear in tasks
// and pixels (a pairwise check took over a second at a quarter of the
// pixels).
func TestValidateTilingPixelTiling(t *testing.T) {
	tasks := tile(t, pixelDiv, 240, 320, 0, 45, 3)
	if len(tasks) != 240*320 {
		t.Fatalf("%d tasks", len(tasks))
	}
	tasks[len(tasks)-1].EndFrame = 44
	if err := ValidateTiling(tasks, 240, 320, 0, 45); err == nil || !strings.Contains(err.Error(), "frame 44") {
		t.Errorf("last pixel missing at frame 44: %v", err)
	}
}

func TestShardMapCoversRangeContiguously(t *testing.T) {
	for _, tc := range []struct{ start, end, n int }{
		{0, 30, 1}, {0, 30, 3}, {0, 30, 4}, {0, 5, 2}, {10, 17, 3},
		{0, 3, 8}, // more sinks than frames
		{5, 6, 2},
	} {
		s := ShardMap{Start: tc.start, End: tc.end, N: tc.n}
		prevEnd := tc.start
		for i := 0; i < tc.n; i++ {
			s0, s1 := s.Shard(i)
			if s0 != prevEnd {
				t.Fatalf("%+v: shard %d starts at %d, want %d", tc, i, s0, prevEnd)
			}
			if s1 < s0 || s1 > tc.end {
				t.Fatalf("%+v: shard %d = [%d,%d) out of range", tc, i, s0, s1)
			}
			prevEnd = s1
			for f := s0; f < s1; f++ {
				if got := s.Of(f); got != i {
					t.Fatalf("%+v: Of(%d) = %d, want shard %d [%d,%d)", tc, f, got, i, s0, s1)
				}
			}
		}
		if prevEnd != tc.end {
			t.Fatalf("%+v: shards end at %d, want %d", tc, prevEnd, tc.end)
		}
	}
}

func TestShardMapBalance(t *testing.T) {
	s := ShardMap{Start: 0, End: 100, N: 7}
	for i := 0; i < s.N; i++ {
		s0, s1 := s.Shard(i)
		if n := s1 - s0; n < 100/7 || n > 100/7+1 {
			t.Errorf("shard %d holds %d frames, want %d or %d", i, n, 100/7, 100/7+1)
		}
	}
}

// TestWeightedSequenceProportional: the paper's testbed, speeds 2:1:1,
// by largest remainder — the odd frame goes to the fast machine.
func TestWeightedSequenceProportional(t *testing.T) {
	pinLengths(t, weighted, 240, 320, 0, 45, 3, 23, 11, 11)
	pinLengths(t, weighted, 240, 320, 0, 30, 3, 15, 8, 7)
}

func TestWeightedDefaultsToUniform(t *testing.T) {
	// Equal weights cut what no weights cut.
	pinLengths(t, Scheme{Sequence: true, Weights: []float64{1, 1, 1}}, 10, 10, 0, 12, 3, 4, 4, 4)
	pinLengths(t, Scheme{Sequence: true}, 10, 10, 0, 12, 3, 4, 4, 4)
}

func TestWeightedZeroAndMissingSpeeds(t *testing.T) {
	// Zero and absent weights count 1: 4:1:1 over 10 frames.
	pinLengths(t, Scheme{Sequence: true, Weights: []float64{4, 0}}, 8, 8, 0, 10, 3, 7, 2, 1)
}

func TestWeightedSubdivide(t *testing.T) {
	task := tile(t, Scheme{Sequence: true, Weights: []float64{2, 1}}, 8, 8, 0, 12, 2)[0]
	keep, give, ok := Scheme{Sequence: true, Weights: []float64{2, 1}, Adaptive: true}.Subdivide(task)
	if !ok || keep.Frames() != 4 || give.Frames() != 4 {
		t.Errorf("subdivide %v: %v | %v ok=%v", task, keep, give, ok)
	}
}

func TestWeightedSingleWorker(t *testing.T) {
	tasks := pinLengths(t, Scheme{Sequence: true, Weights: []float64{3}}, 8, 8, 2, 14, 1, 12)
	if tasks[0].StartFrame != 2 {
		t.Errorf("task covers [%d,%d), want [2,14)", tasks[0].StartFrame, tasks[0].EndFrame)
	}
}

func TestWeightedMoreWorkersThanFrames(t *testing.T) {
	// 8 workers for 3 frames: the scheme weighs the first 3 only (5:1:1)
	// and drops the one that rounds to no frames rather than emitting an
	// empty assignment.
	pinLengths(t, Scheme{Sequence: true, Weights: []float64{5, 1, 1, 1, 1, 1, 1, 1}}, 8, 8, 0, 3, 8, 2, 1)
}

func TestWeightedNegativeSpeedTreatedAsOne(t *testing.T) {
	// A negative speed (bad calibration input) falls back to weight 1
	// instead of poisoning the apportionment: 1:2 over 12 frames.
	pinLengths(t, Scheme{Sequence: true, Weights: []float64{-3, 2}}, 8, 8, 0, 12, 2, 4, 8)
}

func TestWeightedDegenerateRanges(t *testing.T) {
	for _, s := range []Scheme{weighted, seqDiv, frameDiv} {
		if tasks := s.InitialTasks(8, 8, 5, 5, 2); tasks != nil {
			t.Errorf("%s: empty frame range produced %d tasks", s.Name(), len(tasks))
		}
		if tasks := s.InitialTasks(8, 8, 5, 3, 2); tasks != nil {
			t.Errorf("%s: inverted frame range produced %d tasks", s.Name(), len(tasks))
		}
	}
	for _, s := range []Scheme{weighted, seqDiv, hybrid} {
		if tasks := s.InitialTasks(8, 8, 0, 10, 0); tasks != nil {
			t.Errorf("%s: zero workers produced %d tasks", s.Name(), len(tasks))
		}
	}
}

func TestWeightedFewerSpeedsThanWorkers(t *testing.T) {
	// Two calibrated speeds, four workers: the uncalibrated pair gets
	// weight 1, so 4:2:1:1 over 16 frames is 8:4:2:2.
	pinLengths(t, Scheme{Sequence: true, Weights: []float64{4, 2}}, 8, 8, 0, 16, 4, 8, 4, 2, 2)
}

// Property: every scheme tiles exactly for arbitrary dimensions.
func TestQuickSchemesTile(t *testing.T) {
	schemes := []Scheme{
		{Sequence: true, Adaptive: true},
		{BlockW: 7, BlockH: 5, Adaptive: true},
		{BlockW: 9, BlockH: 9, Sequence: true},
	}
	f := func(w8, h8, frames8, workers8 uint8) bool {
		w := int(w8%30) + 1
		h := int(h8%30) + 1
		frames := int(frames8%20) + 1
		workers := int(workers8%6) + 1
		for _, s := range schemes {
			tasks := s.InitialTasks(w, h, 0, frames, workers)
			if err := ValidateTiling(tasks, w, h, 0, frames); err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: repeated adaptive subdivision always conserves frames and
// terminates.
func TestQuickSubdivideConserves(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%50) + 1
		queue := []Task{{Region: fb.NewRect(0, 0, 4, 4), StartFrame: 0, EndFrame: n}}
		var leaves []Task
		for len(queue) > 0 {
			t0 := queue[0]
			queue = queue[1:]
			keep, give, ok := seqDiv.Subdivide(t0)
			if !ok {
				leaves = append(leaves, t0)
				continue
			}
			queue = append(queue, keep, give)
		}
		total := 0
		for _, l := range leaves {
			total += l.Frames()
			if l.Frames() != 1 {
				return false // full subdivision ends at single frames
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: any speed mix tiles exactly.
func TestQuickWeightedTiles(t *testing.T) {
	f := func(s0, s1, s2 uint8, frames8, workers8 uint8) bool {
		speeds := []float64{float64(s0%8) + 0.5, float64(s1%8) + 0.5, float64(s2%8) + 0.5}
		frames := int(frames8%40) + 1
		workers := int(workers8%5) + 1
		s := Scheme{Sequence: true, Weights: speeds, Adaptive: true}
		tasks := s.InitialTasks(16, 16, 0, frames, workers)
		return ValidateTiling(tasks, 16, 16, 0, frames) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzSchemeTiles: every Scheme, over every field, tiles the animation
// exactly; an unweighted sequence cut is ShardMap's; and subdividing
// every task until it will not split conserves its frames, ending at
// single frames exactly when the scheme is adaptive.
func FuzzSchemeTiles(f *testing.F) {
	f.Add(uint8(24), uint8(16), uint8(0), uint8(0), true, uint8(0), uint8(0), uint8(0), true, uint8(0), uint8(45), uint8(3))
	f.Add(uint8(24), uint8(16), uint8(7), uint8(5), false, uint8(0), uint8(0), uint8(0), true, uint8(1), uint8(20), uint8(4))
	f.Add(uint8(7), uint8(5), uint8(3), uint8(2), true, uint8(0), uint8(0), uint8(0), false, uint8(2), uint8(13), uint8(5))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(1), false, uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(9), uint8(2))
	f.Add(uint8(16), uint8(9), uint8(0), uint8(0), true, uint8(4), uint8(2), uint8(2), true, uint8(0), uint8(45), uint8(3))
	f.Add(uint8(16), uint8(9), uint8(0), uint8(0), true, uint8(9), uint8(0), uint8(1), false, uint8(1), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, w, h, bw, bh uint8, sequence bool, w0, w1, w2 uint8, adaptive bool, start, frames, workers uint8) {
		s := Scheme{BlockW: int(bw % 12), BlockH: int(bh % 12), Sequence: sequence, Adaptive: adaptive}
		if w0 > 0 {
			s.Weights = []float64{float64(w0%9) / 2, float64(w1%9) / 2, float64(w2%9) / 2}
		}
		W, H, f0, k := int(w%24)+1, int(h%16)+1, int(start%3), int(workers%10)
		f1 := f0 + int(frames%50)
		tasks := s.InitialTasks(W, H, f0, f1, k)
		if sequence && k == 0 {
			if tasks != nil {
				t.Fatalf("%+v: %d tasks for no workers", s, len(tasks))
			}
			return
		}
		if err := ValidateTiling(tasks, W, H, f0, f1); err != nil {
			t.Fatalf("%+v over %dx%d [%d,%d) on %d: %v", s, W, H, f0, f1, k, err)
		}
		if sequence && len(s.Weights) == 0 && f1 > f0 {
			var cut [][2]int
			for _, task := range tasks {
				if r := [2]int{task.StartFrame, task.EndFrame}; len(cut) == 0 || cut[len(cut)-1] != r {
					cut = append(cut, r)
				}
			}
			if want := (ShardMap{Start: f0, End: f1, N: k}).Ranges(); !slices.Equal(cut, want) {
				t.Fatalf("%+v: subsequences %v, ShardMap cuts %v", s, cut, want)
			}
		}
		var leaves []Task
		for queue := tasks; len(queue) > 0; {
			task := queue[0]
			queue = queue[1:]
			if keep, give, ok := s.Subdivide(task); ok {
				queue = append(queue, keep, give)
				continue
			}
			if adaptive && task.Frames() != 1 {
				t.Fatalf("%+v: an adaptive scheme would not split %v", s, task)
			}
			leaves = append(leaves, task)
		}
		if !adaptive && len(leaves) != len(tasks) {
			t.Fatalf("%+v: a static scheme split its tasks", s)
		}
		if err := ValidateTiling(leaves, W, H, f0, f1); err != nil {
			t.Fatalf("%+v: subdivided tasks: %v", s, err)
		}
	})
}
