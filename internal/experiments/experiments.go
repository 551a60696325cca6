// Package experiments regenerates the paper's evaluation artefacts:
// Table 1 (the Newton performance table), the Figure 2 difference masks,
// the Figure 4 partition maps, and the ablation studies DESIGN.md calls
// out. `now tables` prints them.
package experiments

import (
	"fmt"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/imgdiff"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/stats"
)

// Params scale an experiment. The paper's full size is 240x320 over 45
// frames; tests use smaller settings (the shape of the results, not the
// absolute numbers, is what must hold).
type Params struct {
	Scene  *scene.Scene
	W, H   int
	BlockW int
	BlockH int
}

// Table1Row is one configuration's measurements: a column group of the
// paper's Table 1.
type Table1Row struct {
	Label      string
	Rays       uint64
	FirstFrame time.Duration
	AvgFrame   time.Duration
	Total      time.Duration
	// Speedup is relative to the single-processor no-coherence run.
	Speedup float64
}

// Table1Result carries the five configurations in the paper's order.
type Table1Result struct {
	Rows []Table1Row
	// FirstFrameOverhead is the coherence bookkeeping share of the
	// first frame in the single+FC run (the paper reports ~12%).
	FirstFrameOverhead float64
	// RayReduction is rays(1) / rays(2) (the paper reports ~5x).
	RayReduction float64
	// Multiplicative is speedup(8) / (speedup(2) * speedup(4)): > 1
	// means super-multiplicative, the paper reports +18.5%.
	Multiplicative float64
}

// Table1 reproduces the paper's Table 1 on the virtual NOW: the five
// configurations over the same scene, reporting rays, times and
// speedups.
func Table1(p Params) (*Table1Result, error) {
	if p.BlockW == 0 {
		p.BlockW = 80
	}
	if p.BlockH == 0 {
		p.BlockH = 80
	}
	machines := cluster.PaperTestbed()
	fastest := machines[0]
	base := farm.Config{Scene: p.Scene, W: p.W, H: p.H, Machines: machines}

	runs := []struct {
		label  string
		single bool
		coh    bool
		scheme partition.Scheme
	}{
		{"(1) single", true, false, partition.Scheme{Sequence: true}},
		{"(2) single + FC", true, true, partition.Scheme{Sequence: true}},
		{"(4) distributed", false, false, partition.Scheme{BlockW: p.BlockW, BlockH: p.BlockH, Adaptive: true}},
		{"(6) dist + FC (seq div)", false, true, partition.Scheme{Sequence: true, Adaptive: true}},
		{"(8) dist + FC (frame div)", false, true, partition.Scheme{BlockW: p.BlockW, BlockH: p.BlockH, Adaptive: true}},
	}

	out := &Table1Result{}
	var overheadShare float64
	for _, r := range runs {
		cfg := base
		cfg.Coherence = r.coh
		cfg.Scheme = r.scheme
		if r.single {
			// One machine, whole frames: sequence division is one task.
			cfg.Machines = []cluster.Machine{fastest}
		}
		res, err := farm.RenderVirtual(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.label, err)
		}
		total := res.Run.TotalRays()
		row := Table1Row{
			Label: r.label,
			Rays:  total.Total(),
			Total: res.Makespan,
		}
		if ff, ok := res.Run.FirstFrame(); ok {
			row.FirstFrame = ff.Elapsed
		}
		if n := len(res.Run.Frames); n > 0 {
			row.AvgFrame = res.Makespan / time.Duration(n)
		}
		out.Rows = append(out.Rows, row)

		if r.label == "(2) single + FC" {
			// Estimate the coherence overhead share of the first frame
			// by comparing against the plain first frame: the extra
			// time is pure bookkeeping (registration + change scan).
			if base1 := out.Rows[0].FirstFrame; base1 > 0 && row.FirstFrame > base1 {
				overheadShare = float64(row.FirstFrame-base1) / float64(row.FirstFrame)
			}
		}
	}

	baseTotal := out.Rows[0].Total
	for i := range out.Rows {
		out.Rows[i].Speedup = cluster.Speedup(baseTotal, out.Rows[i].Total)
	}
	out.FirstFrameOverhead = overheadShare
	if r2 := out.Rows[1].Rays; r2 > 0 {
		out.RayReduction = float64(out.Rows[0].Rays) / float64(r2)
	}
	if s2, s4 := out.Rows[1].Speedup, out.Rows[2].Speedup; s2 > 0 && s4 > 0 {
		out.Multiplicative = out.Rows[4].Speedup / (s2 * s4)
	}
	return out, nil
}

// Render formats the result as the paper's table.
func (t *Table1Result) Render() string {
	var tb stats.Table
	for _, r := range t.Rows {
		tb.AddRow(
			"configuration", r.Label,
			"# rays", fmt.Sprintf("%d", r.Rays),
			"first frame", stats.FormatDuration(r.FirstFrame),
			"avg frame", stats.FormatDuration(r.AvgFrame),
			"total", stats.FormatDuration(r.Total),
			"speedup", fmt.Sprintf("%.2f", r.Speedup),
		)
	}
	s := tb.String()
	s += fmt.Sprintf("\nFC first-frame overhead: %.1f%% (paper: ~12%%)\n", 100*t.FirstFrameOverhead)
	s += fmt.Sprintf("ray reduction (1)/(2):   %.2fx (paper: ~5x)\n", t.RayReduction)
	s += fmt.Sprintf("combined vs product:     %+.1f%% (paper: +18.5%%)\n", 100*(t.Multiplicative-1))
	return s
}

// CSV renders the result as comma-separated values (one row per
// configuration plus derived quantities as trailing comment lines).
func (t *Table1Result) CSV() string {
	var tb stats.Table
	for _, r := range t.Rows {
		tb.AddRow(
			"configuration", r.Label,
			"rays", fmt.Sprintf("%d", r.Rays),
			"first_frame_s", fmt.Sprintf("%.3f", r.FirstFrame.Seconds()),
			"avg_frame_s", fmt.Sprintf("%.3f", r.AvgFrame.Seconds()),
			"total_s", fmt.Sprintf("%.3f", r.Total.Seconds()),
			"speedup", fmt.Sprintf("%.3f", r.Speedup),
		)
	}
	s := tb.CSV()
	s += fmt.Sprintf("# fc_first_frame_overhead,%.4f\n", t.FirstFrameOverhead)
	s += fmt.Sprintf("# ray_reduction,%.4f\n", t.RayReduction)
	s += fmt.Sprintf("# combined_vs_product,%.4f\n", t.Multiplicative)
	return s
}

// Figure2Result holds the actual and predicted change masks for one
// frame transition.
type Figure2Result struct {
	FrameA, FrameB *fb.Framebuffer
	Actual         *imgdiff.Mask // Figure 2(a)
	Predicted      *imgdiff.Mask // Figure 2(b)
}

// Figure2 renders frames f and f+1 of the scene, the actual difference
// mask, and the coherence-predicted dirty mask.
func Figure2(p Params, frame int) (*Figure2Result, error) {
	full := fb.NewRect(0, 0, p.W, p.H)
	var frames []*fb.Framebuffer
	_, err := coherence.FullRender(p.Scene, p.W, p.H, full, frame, frame+2, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			frames = append(frames, img.Clone())
			return nil
		})
	if err != nil {
		return nil, err
	}
	actual, err := imgdiff.Diff(frames[0], frames[1])
	if err != nil {
		return nil, err
	}
	eng, err := coherence.NewEngine(p.Scene, p.W, p.H, full, 0, p.Scene.Frames, coherence.Options{})
	if err != nil {
		return nil, err
	}
	for f := 0; f <= frame; f++ {
		if _, err := eng.Render(f); err != nil {
			return nil, err
		}
	}
	predicted, err := imgdiff.MaskFromDirty(eng.DirtyMask(), full, p.W, p.H)
	if err != nil {
		return nil, err
	}
	return &Figure2Result{
		FrameA: frames[0], FrameB: frames[1],
		Actual: actual, Predicted: predicted,
	}, nil
}

// Figure4 renders the task-assignment maps of Figure 4: for each scheme,
// which (frame, region) goes to which initial task. It returns one line
// per task.
func Figure4(w, h, frames, workers int) []string {
	var out []string
	for _, sch := range []partition.Scheme{
		{Sequence: true, Adaptive: true},
		{BlockW: w / 2, BlockH: h / 2},
	} {
		tasks := sch.InitialTasks(w, h, 0, frames, workers)
		out = append(out, fmt.Sprintf("%s:", sch.Name()))
		for _, t := range tasks {
			out = append(out, "  "+t.String())
		}
	}
	return out
}

// AblationResult is one (label, makespan, extra) measurement.
type AblationResult struct {
	Label    string
	Makespan time.Duration
	// Rendered is the total pixels traced (coherence quality signal).
	Rendered int
	// Detail carries scheme-specific extra info.
	Detail string
}

// AblationBlockSize sweeps frame-division block sizes, including the
// paper's degenerate extremes (whole frame, single pixels are
// impractical so the smallest swept block is 4x4).
func AblationBlockSize(p Params, sizes []int) ([]AblationResult, error) {
	var out []AblationResult
	for _, bs := range sizes {
		cfg := farm.Config{
			Scene: p.Scene, W: p.W, H: p.H, Coherence: true,
			Scheme: partition.Scheme{BlockW: bs, BlockH: bs, Adaptive: true},
		}
		res, err := farm.RenderVirtual(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Label:    fmt.Sprintf("block %dx%d", bs, bs),
			Makespan: res.Makespan,
			Rendered: res.Run.TotalRendered(),
			Detail:   fmt.Sprintf("tasks=%d traffic=%dB", res.TasksExecuted, res.BytesTransferred),
		})
	}
	return out, nil
}

// coherentRun renders the whole animation through one full-frame
// coherence engine with opts, calling each (when non-nil) on every
// frame. Its Makespan prices each frame with the work farm's frame step
// charges, on the paper's fastest machine under the default cost model,
// so that the single-engine ablations read virtual time like the farm
// rows do, not wall time.
func coherentRun(p Params, opts coherence.Options, each func(f int, img *fb.Framebuffer)) (r AblationResult, regs uint64, err error) {
	full := fb.NewRect(0, 0, p.W, p.H)
	eng, err := coherence.NewEngine(p.Scene, p.W, p.H, full, 0, p.Scene.Frames, opts)
	if err != nil {
		return r, 0, err
	}
	cost, fastest := cluster.DefaultCostModel(), cluster.PaperTestbed()[0]
	_, err = eng.RenderSequence(func(f int, img *fb.Framebuffer, rep coherence.FrameReport) error {
		w := cluster.Work{Rays: rep.Rays.Total(), Registrations: rep.Registrations, CopiedPixels: uint64(rep.Copied)}
		if rep.ChangeVoxels > 0 { // change detection scanned every pixel's run
			w.ScannedPixels = uint64(full.Area())
		}
		r.Makespan += cost.On(fastest, w)
		r.Rendered += rep.Rendered
		regs += rep.Registrations
		if each != nil {
			each(f, img)
		}
		return nil
	})
	return r, regs, err
}

// AblationGridResolution sweeps the coherence voxel-grid resolution on a
// single-processor coherent run, reporting pixels re-rendered (finer
// grids predict tighter dirty sets at higher bookkeeping cost).
func AblationGridResolution(p Params, resolutions []int) ([]AblationResult, error) {
	var out []AblationResult
	for _, res := range resolutions {
		r, regs, err := coherentRun(p, coherence.Options{GridRes: res}, nil)
		if err != nil {
			return nil, err
		}
		r.Label, r.Detail = fmt.Sprintf("grid %d^3", res), fmt.Sprintf("registrations=%d", regs)
		out = append(out, r)
	}
	return out, nil
}

// AblationJevansBlocks compares pixel-granular coherence (the paper's
// contribution) against Jevans-style NxN block granularity.
func AblationJevansBlocks(p Params, granularities []int) ([]AblationResult, error) {
	var out []AblationResult
	for _, g := range granularities {
		r, _, err := coherentRun(p, coherence.Options{BlockGranularity: g}, nil)
		if err != nil {
			return nil, err
		}
		r.Label = "per-pixel (ours)"
		if g > 1 {
			r.Label = fmt.Sprintf("Jevans %dx%d blocks", g, g)
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationAdaptive compares adaptive and static sequence division on a
// heterogeneous cluster.
func AblationAdaptive(p Params) ([]AblationResult, error) {
	var out []AblationResult
	for _, adaptive := range []bool{false, true} {
		cfg := farm.Config{
			Scene: p.Scene, W: p.W, H: p.H, Coherence: true,
			Scheme: partition.Scheme{Sequence: true, Adaptive: adaptive},
		}
		res, err := farm.RenderVirtual(cfg)
		if err != nil {
			return nil, err
		}
		label := "seq div static"
		if adaptive {
			label = "seq div adaptive"
		}
		out = append(out, AblationResult{
			Label:    label,
			Makespan: res.Makespan,
			Rendered: res.Run.TotalRendered(),
			Detail:   fmt.Sprintf("subdivisions=%d", res.Subdivisions),
		})
	}
	return out, nil
}

// AblationShadowCoherence measures the cost and correctness effect of
// disabling shadow-ray registration: fewer registrations, but dirty
// prediction misses shadow changes and images can differ from full
// renders.
func AblationShadowCoherence(p Params) ([]AblationResult, error) {
	full := fb.NewRect(0, 0, p.W, p.H)
	// Ground truth.
	var truth []*fb.Framebuffer
	if _, err := coherence.FullRender(p.Scene, p.W, p.H, full, 0, p.Scene.Frames, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			truth = append(truth, img.Clone())
			return nil
		}); err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, disable := range []bool{false, true} {
		wrongPixels := 0
		r, _, err := coherentRun(p, coherence.Options{DisableShadowRegistration: disable},
			func(f int, img *fb.Framebuffer) { wrongPixels += img.DiffCount(truth[f]) })
		if err != nil {
			return nil, err
		}
		r.Label = "shadow registration on"
		if disable {
			r.Label = "shadow registration off"
		}
		r.Detail = fmt.Sprintf("wrong pixels vs full render: %d", wrongPixels)
		out = append(out, r)
	}
	return out, nil
}

// AblationWeighted compares plain, adaptive and speed-weighted sequence
// division on the heterogeneous paper testbed — the paper's §5
// "refinement of adaptive partitioning schemes" direction.
func AblationWeighted(p Params) ([]AblationResult, error) {
	machines := cluster.PaperTestbed()
	speeds := make([]float64, len(machines))
	for i, m := range machines {
		speeds[i] = m.Speed
	}
	schemes := []partition.Scheme{
		{Sequence: true},
		{Sequence: true, Adaptive: true},
		{Sequence: true, Weights: speeds},
		{Sequence: true, Weights: speeds, Adaptive: true},
	}
	var out []AblationResult
	for _, sch := range schemes {
		cfg := farm.Config{
			Scene: p.Scene, W: p.W, H: p.H, Coherence: true,
			Scheme: sch, Machines: machines,
		}
		res, err := farm.RenderVirtual(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Label:    sch.Name(),
			Makespan: res.Makespan,
			Rendered: res.Run.TotalRendered(),
			Detail:   fmt.Sprintf("subdivisions=%d", res.Subdivisions),
		})
	}
	return out, nil
}

// MemoryResult reports the super-multiplicativity study.
type MemoryResult struct {
	// SingleFCSpeedup and DistSpeedup are the individual technique
	// speedups; CombinedSpeedup is frame division + FC.
	SingleFCSpeedup, DistSpeedup, CombinedSpeedup float64
	// Multiplicative is combined / (singleFC * dist): the paper reports
	// +18.5% (super-multiplicative) and credits "the increased aggregate
	// memory of multiple machines".
	Multiplicative float64
}

// AblationMemory reproduces the paper's aggregate-memory argument: with
// per-machine memory small enough that a whole-frame coherence working
// set thrashes but a frame-division block fits, the combined
// configuration becomes super-multiplicative. memMB of 0 disables the
// constraint (the no-thrash control).
func AblationMemory(p Params, memMB int) (*MemoryResult, error) {
	machines := cluster.PaperTestbed()
	for i := range machines {
		machines[i].MemoryMB = memMB
	}
	base := farm.Config{Scene: p.Scene, W: p.W, H: p.H, Machines: machines}

	// The single-processor baselines: the fast machine alone, whole frames.
	one := base
	one.Machines = machines[:1]
	single, err := farm.RenderVirtual(withMem(one, false, partition.Scheme{Sequence: true}))
	if err != nil {
		return nil, err
	}
	singleFC, err := farm.RenderVirtual(withMem(one, true, partition.Scheme{Sequence: true}))
	if err != nil {
		return nil, err
	}
	fd := partition.Scheme{BlockW: p.BlockW, BlockH: p.BlockH, Adaptive: true}
	dist, err := farm.RenderVirtual(withMem(base, false, fd))
	if err != nil {
		return nil, err
	}
	combined, err := farm.RenderVirtual(withMem(base, true, fd))
	if err != nil {
		return nil, err
	}
	r := &MemoryResult{
		SingleFCSpeedup: cluster.Speedup(single.Makespan, singleFC.Makespan),
		DistSpeedup:     cluster.Speedup(single.Makespan, dist.Makespan),
		CombinedSpeedup: cluster.Speedup(single.Makespan, combined.Makespan),
	}
	if prod := r.SingleFCSpeedup * r.DistSpeedup; prod > 0 {
		r.Multiplicative = r.CombinedSpeedup / prod
	}
	return r, nil
}

func withMem(base farm.Config, coherence bool, scheme partition.Scheme) farm.Config {
	c := base
	c.Coherence = coherence
	c.Scheme = scheme
	return c
}

// ScalingPoint is one cluster-size measurement.
type ScalingPoint struct {
	Machines int
	Makespan time.Duration
	Speedup  float64
}

// Scaling sweeps homogeneous cluster sizes with frame division — the
// "can build an extremely powerful rendering environment" claim of §5.
func Scaling(p Params, sizes []int) ([]ScalingPoint, error) {
	var base time.Duration
	var out []ScalingPoint
	bw, bh := p.BlockW, p.BlockH
	if bw == 0 {
		bw = p.W / 4
	}
	if bh == 0 {
		bh = p.H / 4
	}
	for i, n := range sizes {
		cfg := farm.Config{
			Scene: p.Scene, W: p.W, H: p.H, Coherence: true,
			Scheme:   partition.Scheme{BlockW: bw, BlockH: bh, Adaptive: true},
			Machines: cluster.Uniform(n, 1.0, 64),
		}
		res, err := farm.RenderVirtual(cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = res.Makespan
		}
		out = append(out, ScalingPoint{
			Machines: n,
			Makespan: res.Makespan,
			Speedup:  cluster.Speedup(base, res.Makespan),
		})
	}
	return out, nil
}
