package partition

import (
	"testing"
	"testing/quick"

	"nowrender/internal/fb"
)

func TestSequenceDivisionInitialTasks(t *testing.T) {
	s := SequenceDivision{Adaptive: true}
	// The paper's example: 4 processors, 120 frames -> 30 frames each.
	tasks := s.InitialTasks(240, 320, 0, 120, 4)
	if len(tasks) != 4 {
		t.Fatalf("%d tasks", len(tasks))
	}
	for i, task := range tasks {
		if task.Frames() != 30 {
			t.Errorf("task %d has %d frames, want 30", i, task.Frames())
		}
		if task.Region != fb.NewRect(0, 0, 240, 320) {
			t.Errorf("task %d region %v, want full frame", i, task.Region)
		}
	}
	// Subsequences are consecutive (required for coherence).
	for i := 1; i < len(tasks); i++ {
		if tasks[i].StartFrame != tasks[i-1].EndFrame {
			t.Error("subsequences not contiguous")
		}
	}
	if err := ValidateTiling(tasks, 240, 320, 0, 120); err != nil {
		t.Error(err)
	}
}

func TestSequenceDivisionUnevenFrames(t *testing.T) {
	s := SequenceDivision{}
	tasks := s.InitialTasks(10, 10, 0, 45, 3) // the Newton run: 45 frames, 3 machines
	if len(tasks) != 3 {
		t.Fatalf("%d tasks", len(tasks))
	}
	total := 0
	for _, task := range tasks {
		total += task.Frames()
	}
	if total != 45 {
		t.Errorf("total frames %d", total)
	}
	if err := ValidateTiling(tasks, 10, 10, 0, 45); err != nil {
		t.Error(err)
	}
}

func TestSequenceDivisionMoreWorkersThanFrames(t *testing.T) {
	s := SequenceDivision{}
	tasks := s.InitialTasks(4, 4, 0, 2, 8)
	if len(tasks) != 2 {
		t.Fatalf("%d tasks for 2 frames", len(tasks))
	}
	if err := ValidateTiling(tasks, 4, 4, 0, 2); err != nil {
		t.Error(err)
	}
}

func TestSequenceSubdivide(t *testing.T) {
	adaptive := SequenceDivision{Adaptive: true}
	static := SequenceDivision{Adaptive: false}
	task := Task{ID: 0, Region: fb.NewRect(0, 0, 4, 4), StartFrame: 10, EndFrame: 20}
	keep, give, ok := adaptive.Subdivide(task)
	if !ok {
		t.Fatal("adaptive subdivide refused")
	}
	if keep.EndFrame != 15 || give.StartFrame != 15 || give.EndFrame != 20 {
		t.Errorf("split = %v | %v", keep, give)
	}
	if keep.Frames()+give.Frames() != task.Frames() {
		t.Error("frames lost in split")
	}
	if _, _, ok := static.Subdivide(task); ok {
		t.Error("static scheme subdivided")
	}
	one := Task{StartFrame: 3, EndFrame: 4, Region: task.Region}
	if _, _, ok := adaptive.Subdivide(one); ok {
		t.Error("single-frame task subdivided")
	}
}

func TestFrameDivisionPaperCase(t *testing.T) {
	// 240x320 with 80x80 blocks = 3x4 = 12 subareas.
	s := FrameDivision{BlockW: 80, BlockH: 80}
	tasks := s.InitialTasks(240, 320, 0, 45, 3)
	if len(tasks) != 12 {
		t.Fatalf("%d tasks, want 12", len(tasks))
	}
	for _, task := range tasks {
		if task.Frames() != 45 {
			t.Errorf("task %v does not span the sequence", task)
		}
		if task.Region.W() != 80 || task.Region.H() != 80 {
			t.Errorf("block %v not 80x80", task.Region)
		}
	}
	if err := ValidateTiling(tasks, 240, 320, 0, 45); err != nil {
		t.Error(err)
	}
}

func TestFrameDivisionQuarterFrame(t *testing.T) {
	// The paper's 4-processor example: each renders 120x160 of each frame.
	s := FrameDivision{BlockW: 120, BlockH: 160}
	tasks := s.InitialTasks(240, 320, 0, 120, 4)
	if len(tasks) != 4 {
		t.Fatalf("%d tasks, want 4", len(tasks))
	}
	if err := ValidateTiling(tasks, 240, 320, 0, 120); err != nil {
		t.Error(err)
	}
}

func TestFrameDivisionDefaultsToWholeFrame(t *testing.T) {
	s := FrameDivision{}
	tasks := s.InitialTasks(100, 50, 0, 7, 2)
	if len(tasks) != 1 || tasks[0].Region != fb.NewRect(0, 0, 100, 50) {
		t.Errorf("tasks = %v", tasks)
	}
}

func TestFrameDivisionSubdivide(t *testing.T) {
	s := FrameDivision{BlockW: 80, BlockH: 80, Adaptive: true}
	task := Task{Region: fb.NewRect(0, 0, 80, 80), StartFrame: 0, EndFrame: 45}
	keep, give, ok := s.Subdivide(task)
	if !ok || keep.Frames() != 22 || give.Frames() != 23 {
		t.Errorf("split %v | %v ok=%v", keep, give, ok)
	}
	if keep.Region != task.Region || give.Region != task.Region {
		t.Error("subdivision changed the region")
	}
}

func TestHybridDivision(t *testing.T) {
	s := HybridDivision{BlockW: 120, BlockH: 160, SubseqLen: 15}
	tasks := s.InitialTasks(240, 320, 0, 45, 3)
	// 4 blocks x 3 chunks = 12 tasks.
	if len(tasks) != 12 {
		t.Fatalf("%d tasks, want 12", len(tasks))
	}
	if err := ValidateTiling(tasks, 240, 320, 0, 45); err != nil {
		t.Error(err)
	}
	// Chunk lengths respect SubseqLen.
	for _, task := range tasks {
		if task.Frames() != 15 {
			t.Errorf("chunk %v has %d frames", task, task.Frames())
		}
	}
	if _, _, ok := s.Subdivide(tasks[0]); ok {
		t.Error("hybrid tasks should not subdivide")
	}
}

func TestHybridUnevenChunk(t *testing.T) {
	s := HybridDivision{BlockW: 50, BlockH: 50, SubseqLen: 10}
	tasks := s.InitialTasks(50, 50, 0, 25, 2)
	if err := ValidateTiling(tasks, 50, 50, 0, 25); err != nil {
		t.Error(err)
	}
	last := tasks[len(tasks)-1]
	if last.Frames() != 5 {
		t.Errorf("last chunk %d frames, want 5", last.Frames())
	}
}

func TestPixelDivision(t *testing.T) {
	s := PixelDivision{}
	tasks := s.InitialTasks(6, 4, 0, 3, 2)
	if len(tasks) != 24 {
		t.Fatalf("%d tasks, want 24", len(tasks))
	}
	if err := ValidateTiling(tasks, 6, 4, 0, 3); err != nil {
		t.Error(err)
	}
	for _, task := range tasks {
		if task.Region.Area() != 1 {
			t.Errorf("task %v not single pixel", task)
		}
	}
}

func TestTaskAccessors(t *testing.T) {
	task := Task{Region: fb.NewRect(0, 0, 80, 80), StartFrame: 5, EndFrame: 15}
	if task.Frames() != 10 || task.Pixels() != 64000 {
		t.Errorf("Frames=%d Pixels=%d", task.Frames(), task.Pixels())
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
}

// Property: every scheme tiles exactly for arbitrary dimensions.
func TestQuickSchemesTile(t *testing.T) {
	schemes := []Scheme{
		SequenceDivision{Adaptive: true},
		FrameDivision{BlockW: 7, BlockH: 5},
		HybridDivision{BlockW: 9, BlockH: 9, SubseqLen: 3},
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
	s := SequenceDivision{Adaptive: true}
	f := func(n8 uint8) bool {
		n := int(n8%50) + 1
		queue := []Task{{Region: fb.NewRect(0, 0, 4, 4), StartFrame: 0, EndFrame: n}}
		var leaves []Task
		for len(queue) > 0 {
			t0 := queue[0]
			queue = queue[1:]
			keep, give, ok := s.Subdivide(t0)
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
