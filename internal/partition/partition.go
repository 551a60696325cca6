// Package partition implements the data decompositions of §3 of the
// paper: how an animation (frames × pixels) is broken into tasks for the
// workstations. One Scheme covers them all, because the paper's hybrid is
// the general case: a task is one block of the frame times one
// subsequence of the frames.
//
//   - Sequence division, {Sequence: true}: each worker receives a
//     consecutive subsequence of whole frames; frame coherence is
//     exploited within the subsequence. Load balancing comes from
//     adaptively subdividing a straggler's remaining frames.
//   - Frame division, {BlockW, BlockH}: each frame is divided into fixed
//     subareas (the paper uses 80x80 blocks) and a worker renders its
//     subarea for the whole sequence; with more subareas than workers,
//     assignment is request-driven. Memory per worker is proportional to
//     subarea size.
//   - Hybrid division, {BlockW, BlockH, Sequence: true}: subarea ×
//     subsequence, the combination the paper mentions as a further
//     option.
//   - Weighted sequence division, {Sequence: true, Weights}: the §5
//     future-work refinement; subsequences sized by known worker speeds,
//     so a 2x machine starts with 2x the frames.
//   - Pixel division, {BlockW: 1, BlockH: 1}: the degenerate
//     single-pixel extreme the paper uses to argue message-passing
//     overhead dominates ("we could assign each processor a single pixel
//     ... inefficiency and longer execution time").
//
// A scheme's initial tasks tile the full animation exactly: every
// (frame, pixel) pair is covered by exactly one task.
package partition

import (
	"fmt"
	"slices"

	"nowrender/internal/bitset"
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

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("task %d: %v frames [%d,%d)", t.ID, t.Region, t.StartFrame, t.EndFrame)
}

// Scheme decomposes an animation into block × subsequence tasks. The
// zero Scheme is one task: the whole frame over the whole sequence.
type Scheme struct {
	// BlockW, BlockH size the blocks each frame is tiled into; a size
	// below 1 spans the frame.
	BlockW, BlockH int
	// Sequence cuts the frames into one consecutive subsequence per
	// worker; without it every task spans all the frames.
	Sequence bool
	// Weights size the subsequences by relative worker speed,
	// index-aligned with the farm's machine order. A missing or
	// non-positive weight counts as 1; no weights cut equal
	// subsequences.
	Weights []float64
	// Adaptive lets Subdivide split a task's remaining frames; without
	// it the initial assignment is final (the paper's "potential
	// drawback ... if the number of frames assigned to each processor is
	// static").
	Adaptive bool
}

// FrameDivision is Scheme under its old name; bench/ is its only user.
type FrameDivision = Scheme

// Parse maps a scheme name, as nowrender's -scheme flag and a service
// job spec give it, onto its Scheme; blockW and blockH size the blocks
// of framediv and hybrid.
func Parse(name string, blockW, blockH int) (Scheme, error) {
	switch name {
	case "seqdiv":
		return Scheme{Sequence: true, Adaptive: true}, nil
	case "seqdiv-static":
		return Scheme{Sequence: true}, nil
	case "framediv":
		return Scheme{BlockW: blockW, BlockH: blockH, Adaptive: true}, nil
	case "hybrid":
		return Scheme{BlockW: blockW, BlockH: blockH, Sequence: true}, nil
	case "pixeldiv":
		return Scheme{BlockW: 1, BlockH: 1}, nil
	}
	return Scheme{}, fmt.Errorf("partition: unknown scheme %q", name)
}

// Name identifies the scheme in reports, e.g. "frame div (80x80)".
func (s Scheme) Name() string {
	mode := "static"
	if s.Adaptive {
		mode = "adaptive"
	}
	switch {
	case !s.Sequence:
		return fmt.Sprintf("frame div (%dx%d)", s.BlockW, s.BlockH)
	case s.BlockW > 0 || s.BlockH > 0:
		return fmt.Sprintf("hybrid (%dx%d)", s.BlockW, s.BlockH)
	case len(s.Weights) > 0:
		return "weighted seq div (" + mode + ")"
	}
	return "seq div (" + mode + ")"
}

// InitialTasks tiles frames [start, end) of a w x h animation into the
// starting task list for the given worker count: every block of every
// subsequence, subsequence-major.
func (s Scheme) InitialTasks(w, h, start, end, workers int) []Task {
	if end <= start || s.Sequence && workers < 1 {
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
	subs := s.subsequences(start, end, workers)
	tasks := make([]Task, 0, len(subs)*len(blocks))
	for _, sub := range subs {
		for _, b := range blocks {
			tasks = append(tasks, Task{ID: len(tasks), Region: b, StartFrame: sub[0], EndFrame: sub[1]})
		}
	}
	return tasks
}

// subsequences cuts [start, end): whole, ShardMap's equal cut, or by weight.
func (s Scheme) subsequences(start, end, workers int) [][2]int {
	switch {
	case !s.Sequence:
		return [][2]int{{start, end}}
	case len(s.Weights) == 0:
		return ShardMap{Start: start, End: end, N: workers}.Ranges()
	}
	k := min(workers, end-start)
	weight := func(i int) float64 {
		if i < len(s.Weights) && s.Weights[i] > 0 {
			return s.Weights[i]
		}
		return 1
	}
	var total float64
	for i := range k {
		total += weight(i)
	}
	// Largest remainder over the weights; the first worker wins a tie.
	n, left := end-start, end-start
	counts := make([]int, k)
	rema := make([]float64, k)
	for i := range counts {
		exact := float64(n) * weight(i) / total
		counts[i] = int(exact)
		rema[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rema {
			if rema[i] > rema[best] {
				best = i
			}
		}
		counts[best]++
		rema[best] = -1
	}
	var out [][2]int
	for _, c := range counts {
		if c > 0 {
			out = append(out, [2]int{start, start + c})
		}
		start += c
	}
	return out
}

// Subdivide splits the unstarted remainder of a task in two for
// redistribution to an idle worker: an adaptive scheme halves the frames
// of a task with at least two. ok is false when it does not split.
func (s Scheme) Subdivide(t Task) (keep, give Task, ok bool) {
	if !s.Adaptive || t.Frames() < 2 {
		return t, Task{}, false
	}
	keep, give = t, t
	keep.EndFrame = t.StartFrame + t.Frames()/2
	give.StartFrame = keep.EndFrame
	return keep, give, true
}

// ShardMap splits the absolute frame range [Start, End) into N
// contiguous shards, one per compositor sink. Contiguity matters: a
// dirty-span delta is applied against the previous frame, so keeping
// consecutive frames on one sink keeps delta chains local — a worker
// only needs to ship a fresh key-frame when it crosses a shard
// boundary. Shard i starts at Start + i·n/N with N = min(N, n), so shard
// sizes differ by at most one frame; an unweighted Scheme cuts its
// subsequences the same way.
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
	N := min(s.N, n)
	// Inverse of the Shard lower bound floor(i*n/N): the smallest i with
	// floor((i+1)*n/N) > frame-Start.
	return ((frame-s.Start+1)*N - 1) / n
}

// Ranges returns every shard's [start, end) range in shard order —
// the contiguous split sequence division uses for its subsequences and
// the object-space partition reuses for voxel index ranges.
func (s ShardMap) Ranges() [][2]int {
	N := max(min(s.N, s.End-s.Start), 1)
	out := make([][2]int, N)
	for i := range out {
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
	N := min(s.N, n)
	if i >= N {
		return s.End, s.End
	}
	return s.Start + i*n/N, s.Start + (i+1)*n/N
}

// ValidateTiling checks that tasks exactly tile frames [start,end) of a
// w x h animation: every region inside the frame, full coverage and no
// overlap. The master runs it on every run's initial queue, so it checks
// once per segment of frames over which the set of tasks is constant,
// marking pixels in one bitset reused across segments.
func ValidateTiling(tasks []Task, w, h, start, end int) error {
	if end <= start {
		return nil
	}
	frame := fb.NewRect(0, 0, w, h)
	cuts := []int{start, end}
	for _, t := range tasks {
		if !t.Region.Empty() && t.Region.Intersect(frame) != t.Region {
			return fmt.Errorf("partition: task %d's region %v lies outside the %dx%d frame", t.ID, t.Region, w, h)
		}
		for _, f := range []int{t.StartFrame, t.EndFrame} {
			if f > start && f < end {
				cuts = append(cuts, f)
			}
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	covered := bitset.New(w * h)
	for i := 1; i < len(cuts); i++ {
		f0, f1 := cuts[i-1], cuts[i]
		covered.Reset()
		for _, t := range tasks {
			if t.StartFrame > f0 || t.EndFrame < f1 || t.Region.Empty() {
				continue
			}
			for y := t.Region.Y0; y < t.Region.Y1; y++ {
				for p := y*w + t.Region.X0; p < y*w+t.Region.X1; p++ {
					if covered.Get(p) {
						return fmt.Errorf("partition: task %d overlaps another at frame %d, pixel (%d,%d)", t.ID, f0, p-y*w, y)
					}
					covered.Set(p)
				}
			}
		}
		if n := covered.Count(); n != w*h {
			return fmt.Errorf("partition: frame %d covers %d of %d pixels", f0, n, w*h)
		}
	}
	return nil
}
