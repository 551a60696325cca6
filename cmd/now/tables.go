package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"nowrender/internal/experiments"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
)

// tablesFlags declares `now tables`, which regenerates the paper's
// evaluation artefacts on the deterministic virtual NOW (Figure 2 is `now
// diff`). -full runs the paper's exact size (240x320, 45 frames — minutes
// of CPU); the default reduced size preserves every qualitative result.
func tablesFlags(fs *flag.FlagSet) runFunc {
	table1 := fs.Bool("table1", false, "regenerate Table 1")
	fig4 := fs.Bool("fig4", false, "print the Figure 4 assignment maps")
	ablations := fs.Bool("ablations", false, "run the design ablations")
	scaling := fs.Bool("scaling", false, "cluster-size scaling sweep")
	full := fs.Bool("full", false, "paper-scale workload (240x320, 45 frames)")
	sceneSpec := fs.String("scene", "newton", usage["scene"])
	csvOut := fs.Bool("csv", false, "emit Table 1 as CSV instead of a text table")

	return func(_ context.Context, _ []string, stdout, _ io.Writer) error {
		all := !*table1 && !*fig4 && !*ablations && !*scaling // no selector selects every artefact
		sc, err := scenes.FromSpec(*sceneSpec)
		if err != nil {
			return err
		}
		p := experiments.Params{Scene: sc, W: 120, H: 160, BlockW: 40, BlockH: 40}
		if *full {
			p.W, p.H, p.BlockW, p.BlockH = 240, 320, 80, 80
		}
		fmt.Fprintf(stdout, "workload: %s, %d frames at %dx%d\n\n", sc.Name, sc.Frames, p.W, p.H)

		if *table1 || all {
			fmt.Fprintln(stdout, "=== Table 1: Performance results for Newton sequence ===")
			res, err := experiments.Table1(p)
			if err != nil {
				return err
			}
			if *csvOut {
				fmt.Fprint(stdout, res.CSV())
			} else {
				fmt.Fprintln(stdout, res.Render())
			}
		}
		if *fig4 || all {
			fmt.Fprintln(stdout, "=== Figure 4: data partitioning (4 workers, 120 frames of 240x320) ===")
			for _, line := range experiments.Figure4(240, 320, 120, 4) {
				fmt.Fprintln(stdout, line)
			}
			fmt.Fprintln(stdout)
		}
		if *ablations || all {
			if err := printAblations(stdout, p); err != nil {
				return err
			}
		}
		if *scaling || all {
			fmt.Fprintln(stdout, "=== Scaling: homogeneous cluster sweep (frame division + FC) ===")
			pts, err := experiments.Scaling(p, []int{1, 2, 3, 4, 6, 8})
			if err != nil {
				return err
			}
			var tb stats.Table
			for _, pt := range pts {
				tb.AddRow("machines", fmt.Sprintf("%d", pt.Machines),
					"time", stats.FormatDuration(pt.Makespan),
					"speedup", fmt.Sprintf("%.2f", pt.Speedup))
			}
			fmt.Fprintln(stdout, tb.String())
		}
		return nil
	}
}

func printAblations(stdout io.Writer, p experiments.Params) error {
	fmt.Fprintln(stdout, "=== Ablations ===")
	for _, a := range []struct {
		title string
		run   func(experiments.Params) ([]experiments.AblationResult, error)
	}{
		{"-- frame-division block size --", func(p experiments.Params) ([]experiments.AblationResult, error) {
			return experiments.AblationBlockSize(p, []int{p.BlockW / 2, p.BlockW, p.BlockW * 2, p.W})
		}},
		{"-- coherence grid resolution --", func(p experiments.Params) ([]experiments.AblationResult, error) {
			return experiments.AblationGridResolution(p, []int{4, 8, 16, 32})
		}},
		{"-- coherence granularity (ours vs Jevans blocks) --", func(p experiments.Params) ([]experiments.AblationResult, error) {
			return experiments.AblationJevansBlocks(p, []int{1, 4, 8, 16})
		}},
		{"-- adaptive vs static sequence division --", experiments.AblationAdaptive},
		{"-- shadow-ray registration --", experiments.AblationShadowCoherence},
		{"-- weighted sequence division (future work, §5) --", experiments.AblationWeighted},
	} {
		rs, err := a.run(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, a.title)
		var tb stats.Table
		for _, r := range rs {
			tb.AddRow("variant", r.Label,
				"time", stats.FormatDuration(r.Makespan),
				"pixels traced", fmt.Sprintf("%d", r.Rendered),
				"detail", r.Detail)
		}
		fmt.Fprintln(stdout, tb.String())
	}
	fmt.Fprintln(stdout, "-- aggregate memory (the paper's +18.5% explanation) --")
	for _, mem := range []int{0, 1} {
		mr, err := experiments.AblationMemory(p, mem)
		if err != nil {
			return err
		}
		label := "unlimited memory"
		if mem > 0 {
			label = fmt.Sprintf("%d MB per machine", mem)
		}
		fmt.Fprintf(stdout, "%-20s FC=%.2fx dist=%.2fx combined=%.2fx vs product %+.1f%%\n",
			label, mr.SingleFCSpeedup, mr.DistSpeedup, mr.CombinedSpeedup,
			100*(mr.Multiplicative-1))
	}
	fmt.Fprintln(stdout)
	return nil
}
