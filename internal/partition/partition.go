// Package partition implements the data decompositions of §3 of the
// paper: how an animation (frames × pixels) is broken into tasks for the
// workstations.
//
//   - Sequence division: each worker receives a consecutive subsequence
//     of whole frames; frame coherence is exploited within the
//     subsequence. Load balancing comes from adaptively subdividing a
//     straggler's remaining frames.
//   - Frame division: each frame is divided into fixed subareas (the
//     paper uses 80x80 blocks) and a worker renders its subarea for the
//     whole sequence; with more subareas than workers, assignment is
//     request-driven. Memory per worker is proportional to subarea size.
//   - Hybrid division: subarea × subsequence, the combination the paper
//     mentions as a further option.
//   - Pixel division: the degenerate single-pixel extreme the paper uses
//     to argue message-passing overhead dominates ("we could assign each
//     processor a single pixel ... inefficiency and longer execution
//     time").
//
// A Task is a (pixel region, frame subsequence) pair. Schemes guarantee
// that their initial tasks tile the full animation exactly: every
// (frame, pixel) pair is covered by exactly one task.
package partition

import (
	"fmt"

	"nowrender/internal/fb"
)

// Task is a unit of assignable work: render Region for frames
// [StartFrame, EndFrame). Consecutive frames within one task share a
// coherence engine.
type Task struct {
	ID         int
	Region     fb.Rect
	StartFrame int
	EndFrame   int // exclusive
}

// Frames returns the number of frames in the task.
func (t Task) Frames() int { return t.EndFrame - t.StartFrame }

// Pixels returns the number of pixel renderings the task covers.
func (t Task) Pixels() int { return t.Region.Area() * t.Frames() }

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("task %d: %v frames [%d,%d)", t.ID, t.Region, t.StartFrame, t.EndFrame)
}

// Scheme produces and subdivides tasks.
type Scheme interface {
	// Name identifies the scheme in reports ("seq div", "frame div"...).
	Name() string
	// InitialTasks tiles frames [start, end) of a w x h animation into
	// the starting task list for the given worker count.
	InitialTasks(w, h, start, end, workers int) []Task
	// Subdivide splits the unstarted remainder of a task in two for
	// redistribution to an idle worker; ok is false when the task is too
	// small to split.
	Subdivide(t Task) (keep, give Task, ok bool)
}

// SequenceDivision assigns consecutive whole-frame subsequences
// (Figure 4(a)).
type SequenceDivision struct {
	// Adaptive enables subdivision of remaining frames; when false the
	// initial static assignment is final (the paper's "potential
	// drawback ... if the number of frames assigned to each processor is
	// static").
	Adaptive bool
}

// Name implements Scheme.
func (s SequenceDivision) Name() string {
	if s.Adaptive {
		return "seq div (adaptive)"
	}
	return "seq div (static)"
}

// InitialTasks implements Scheme: one contiguous chunk of frames per
// worker (frames must stay consecutive to exploit coherence).
func (s SequenceDivision) InitialTasks(w, h, start, end, workers int) []Task {
	n := end - start
	if n <= 0 || workers < 1 {
		return nil
	}
	if workers > n {
		workers = n
	}
	tasks := make([]Task, 0, workers)
	full := fb.NewRect(0, 0, w, h)
	for i := 0; i < workers; i++ {
		s0 := start + i*n/workers
		s1 := start + (i+1)*n/workers
		tasks = append(tasks, Task{
			ID: i, Region: full, StartFrame: s0, EndFrame: s1,
		})
	}
	return tasks
}

// Subdivide implements Scheme: split the frame range in half.
func (s SequenceDivision) Subdivide(t Task) (Task, Task, bool) {
	if !s.Adaptive || t.Frames() < 2 {
		return t, Task{}, false
	}
	mid := t.StartFrame + t.Frames()/2
	keep := t
	keep.EndFrame = mid
	give := t
	give.StartFrame = mid
	return keep, give, true
}

// FrameDivision tiles every frame into fixed blocks; each task is one
// block across the whole sequence (Figure 4(b)).
type FrameDivision struct {
	BlockW, BlockH int
	// Adaptive enables splitting a block task's remaining frames.
	Adaptive bool
}

// Name implements Scheme.
func (s FrameDivision) Name() string {
	return fmt.Sprintf("frame div (%dx%d)", s.BlockW, s.BlockH)
}

// InitialTasks implements Scheme.
func (s FrameDivision) InitialTasks(w, h, start, end, workers int) []Task {
	if end <= start {
		return nil
	}
	bw, bh := s.BlockW, s.BlockH
	if bw < 1 {
		bw = w
	}
	if bh < 1 {
		bh = h
	}
	blocks := fb.NewRect(0, 0, w, h).Blocks(bw, bh)
	tasks := make([]Task, len(blocks))
	for i, b := range blocks {
		tasks[i] = Task{ID: i, Region: b, StartFrame: start, EndFrame: end}
	}
	return tasks
}

// Subdivide implements Scheme: split the remaining frames of the block.
func (s FrameDivision) Subdivide(t Task) (Task, Task, bool) {
	if !s.Adaptive || t.Frames() < 2 {
		return t, Task{}, false
	}
	mid := t.StartFrame + t.Frames()/2
	keep := t
	keep.EndFrame = mid
	give := t
	give.StartFrame = mid
	return keep, give, true
}

// HybridDivision assigns subarea × subsequence tasks: each block of each
// subsequence chunk is a separate task.
type HybridDivision struct {
	BlockW, BlockH int
	// SubseqLen is the number of frames per chunk; the last chunk may be
	// shorter.
	SubseqLen int
}

// Name implements Scheme.
func (s HybridDivision) Name() string {
	return fmt.Sprintf("hybrid (%dx%d x %d frames)", s.BlockW, s.BlockH, s.SubseqLen)
}

// InitialTasks implements Scheme.
func (s HybridDivision) InitialTasks(w, h, start, end, workers int) []Task {
	if end <= start {
		return nil
	}
	bw, bh := s.BlockW, s.BlockH
	if bw < 1 {
		bw = w
	}
	if bh < 1 {
		bh = h
	}
	sl := s.SubseqLen
	if sl < 1 {
		sl = end - start
	}
	blocks := fb.NewRect(0, 0, w, h).Blocks(bw, bh)
	var tasks []Task
	id := 0
	for f := start; f < end; f += sl {
		fe := f + sl
		if fe > end {
			fe = end
		}
		for _, b := range blocks {
			tasks = append(tasks, Task{ID: id, Region: b, StartFrame: f, EndFrame: fe})
			id++
		}
	}
	return tasks
}

// Subdivide implements Scheme: hybrid tasks are already fine-grained; no
// further splitting.
func (s HybridDivision) Subdivide(t Task) (Task, Task, bool) {
	return t, Task{}, false
}

// PixelDivision is the degenerate one-pixel-per-task extreme of §3.
type PixelDivision struct{}

// Name implements Scheme.
func (PixelDivision) Name() string { return "pixel div" }

// InitialTasks implements Scheme.
func (PixelDivision) InitialTasks(w, h, start, end, workers int) []Task {
	if end <= start {
		return nil
	}
	tasks := make([]Task, 0, w*h)
	id := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tasks = append(tasks, Task{
				ID: id, Region: fb.NewRect(x, y, x+1, y+1),
				StartFrame: start, EndFrame: end,
			})
			id++
		}
	}
	return tasks
}

// Subdivide implements Scheme.
func (PixelDivision) Subdivide(t Task) (Task, Task, bool) { return t, Task{}, false }

// ShardMap splits the absolute frame range [Start, End) into N
// contiguous shards, one per compositor sink. Contiguity matters: a
// dirty-span delta is applied against the previous frame, so keeping
// consecutive frames on one sink keeps delta chains local — a worker
// only needs to ship a fresh key-frame when it crosses a shard
// boundary. Shard boundaries use the same rounding as SequenceDivision,
// so shard sizes differ by at most one frame.
type ShardMap struct {
	Start, End int // absolute frame range [Start, End)
	N          int // sink count, >= 1
}

// Of returns the index of the shard owning an absolute frame.
// The frame must lie in [Start, End).
func (s ShardMap) Of(frame int) int {
	n := s.End - s.Start
	if s.N <= 1 || n <= 0 {
		return 0
	}
	N := s.N
	if N > n {
		N = n
	}
	// Inverse of the Shard lower bound floor(i*n/N): the smallest i with
	// floor((i+1)*n/N) > frame-Start.
	return ((frame-s.Start+1)*N - 1) / n
}

// Ranges returns every shard's [start, end) range in shard order —
// the contiguous slab split the object-space partition reuses for voxel
// index ranges (same rounding as SequenceDivision, sizes differing by
// at most one).
func (s ShardMap) Ranges() [][2]int {
	n := s.End - s.Start
	N := s.N
	if N > n {
		N = n
	}
	if N < 1 {
		N = 1
	}
	out := make([][2]int, N)
	for i := 0; i < N; i++ {
		out[i][0], out[i][1] = s.Shard(i)
	}
	return out
}

// Shard returns the absolute frame range [start, end) of shard i.
// Shards beyond the frame count are empty.
func (s ShardMap) Shard(i int) (start, end int) {
	n := s.End - s.Start
	if s.N <= 0 || n <= 0 {
		return s.Start, s.End
	}
	N := s.N
	if N > n {
		N = n
	}
	if i >= N {
		return s.End, s.End
	}
	return s.Start + i*n/N, s.Start + (i+1)*n/N
}

// ValidateTiling checks that tasks exactly tile frames [start,end) of a
// w x h animation: full coverage with no overlap. Schemes are tested
// against this, and the farm asserts it in debug builds.
func ValidateTiling(tasks []Task, w, h, start, end int) error {
	// Per-frame pixel coverage accounting.
	for f := start; f < end; f++ {
		covered := 0
		for i, t := range tasks {
			if f < t.StartFrame || f >= t.EndFrame {
				continue
			}
			covered += t.Region.Area()
			for j := i + 1; j < len(tasks); j++ {
				u := tasks[j]
				if f >= u.StartFrame && f < u.EndFrame && t.Region.Overlaps(u.Region) {
					return fmt.Errorf("partition: tasks %d and %d overlap at frame %d", t.ID, u.ID, f)
				}
			}
		}
		if covered != w*h {
			return fmt.Errorf("partition: frame %d covers %d of %d pixels", f, covered, w*h)
		}
	}
	return nil
}
