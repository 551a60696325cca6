// Command benchtab regenerates the paper's evaluation artefacts on the
// deterministic virtual NOW:
//
//	benchtab -table1              # Table 1: the Newton performance table
//	benchtab -fig2 -frame 10      # Figure 2: actual vs predicted diffs
//	benchtab -fig4                # Figure 4: partition assignment maps
//	benchtab -ablations           # design-choice ablations from DESIGN.md
//	benchtab -scaling             # cluster-size scaling sweep
//	benchtab -all                 # everything
//
// The default workload is the paper's Newton scene. -full runs the
// paper's exact size (240x320, 45 frames — minutes of CPU); the default
// reduced size preserves every qualitative result.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nowrender/internal/experiments"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
)

func main() {
	// Every artefact selector is declared through sel, so "nothing
	// selected means everything" and -all range over the same list and a
	// new artefact cannot be left out of either.
	var selectors []*bool
	sel := func(name, usage string) *bool {
		b := flag.Bool(name, false, usage)
		selectors = append(selectors, b)
		return b
	}
	var (
		table1    = sel("table1", "regenerate Table 1")
		fig2      = sel("fig2", "regenerate Figure 2 masks")
		fig4      = sel("fig4", "print Figure 4 assignment maps")
		ablations = sel("ablations", "run the design ablations")
		scaling   = sel("scaling", "cluster-size scaling sweep")
		all       = flag.Bool("all", false, "run everything")
		full      = flag.Bool("full", false, "paper-scale workload (240x320, 45 frames)")
		frame     = flag.Int("frame", 10, "frame for -fig2")
		outDir    = flag.String("out", "", "directory for figure images")
		sceneSpec = flag.String("scene", "newton", "workload scene spec")
		csvOut    = flag.Bool("csv", false, "emit Table 1 as CSV instead of a text table")
	)
	flag.Parse()
	selected := false
	for _, b := range selectors {
		selected = selected || *b
	}
	if *all || !selected {
		for _, b := range selectors {
			*b = true
		}
	}
	if err := run(*table1, *fig2, *fig4, *ablations, *scaling,
		*full, *frame, *outDir, *sceneSpec, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(table1, fig2, fig4, ablations, scaling, full bool, frame int, outDir, sceneSpec string, csvOut bool) error {
	sc, err := scenes.FromSpec(sceneSpec)
	if err != nil {
		return err
	}
	p := experiments.Params{Scene: sc, W: 120, H: 160, BlockW: 40, BlockH: 40}
	if full {
		p.W, p.H, p.BlockW, p.BlockH = 240, 320, 80, 80
	}
	fmt.Printf("workload: %s, %d frames at %dx%d\n\n", sc.Name, sc.Frames, p.W, p.H)

	if table1 {
		fmt.Println("=== Table 1: Performance results for Newton sequence ===")
		res, err := experiments.Table1(p)
		if err != nil {
			return err
		}
		if csvOut {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Render())
		}
	}

	if fig2 {
		fmt.Printf("=== Figure 2: pixel differences, frames %d -> %d ===\n", frame, frame+1)
		if frame+1 >= sc.Frames {
			return fmt.Errorf("frame %d out of range", frame)
		}
		res, err := experiments.Figure2(p, frame)
		if err != nil {
			return err
		}
		fmt.Printf("(a) actual differences:    %6d pixels (%.1f%%)\n",
			res.Actual.Count(), 100*res.Actual.Fraction())
		fmt.Printf("(b) predicted (dirty set): %6d pixels (%.1f%%)\n",
			res.Predicted.Count(), 100*res.Predicted.Fraction())
		fmt.Printf("superset invariant: %v\n\n", res.Predicted.Covers(res.Actual))
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := tga.WriteFile(filepath.Join(outDir, "fig1-frameA.tga"), res.FrameA); err != nil {
				return err
			}
			if err := tga.WriteFile(filepath.Join(outDir, "fig1-frameB.tga"), res.FrameB); err != nil {
				return err
			}
			if err := tga.WriteFile(filepath.Join(outDir, "fig2a-actual.tga"), res.Actual.Image()); err != nil {
				return err
			}
			if err := tga.WriteFile(filepath.Join(outDir, "fig2b-predicted.tga"), res.Predicted.Image()); err != nil {
				return err
			}
			fmt.Printf("wrote figure images to %s\n\n", outDir)
		}
	}

	if fig4 {
		fmt.Println("=== Figure 4: data partitioning (4 workers, 120 frames of 240x320) ===")
		for _, line := range experiments.Figure4(240, 320, 120, 4) {
			fmt.Println(line)
		}
		fmt.Println()
	}

	if ablations {
		fmt.Println("=== Ablations ===")
		printAblation := func(title string, rs []experiments.AblationResult, err error) error {
			if err != nil {
				return err
			}
			fmt.Println(title)
			var tb stats.Table
			for _, r := range rs {
				tb.AddRow("variant", r.Label,
					"time", stats.FormatDuration(r.Makespan),
					"pixels traced", fmt.Sprintf("%d", r.Rendered),
					"detail", r.Detail)
			}
			fmt.Println(tb.String())
			return nil
		}
		bs, err := experiments.AblationBlockSize(p, []int{p.BlockW / 2, p.BlockW, p.BlockW * 2, p.W})
		if err := printAblation("-- frame-division block size --", bs, err); err != nil {
			return err
		}
		gr, err := experiments.AblationGridResolution(p, []int{4, 8, 16, 32})
		if err := printAblation("-- coherence grid resolution --", gr, err); err != nil {
			return err
		}
		jb, err := experiments.AblationJevansBlocks(p, []int{1, 4, 8, 16})
		if err := printAblation("-- coherence granularity (ours vs Jevans blocks) --", jb, err); err != nil {
			return err
		}
		ad, err := experiments.AblationAdaptive(p)
		if err := printAblation("-- adaptive vs static sequence division --", ad, err); err != nil {
			return err
		}
		sh, err := experiments.AblationShadowCoherence(p)
		if err := printAblation("-- shadow-ray registration --", sh, err); err != nil {
			return err
		}
		wt, err := experiments.AblationWeighted(p)
		if err := printAblation("-- weighted sequence division (future work, §5) --", wt, err); err != nil {
			return err
		}
		fmt.Println("-- aggregate memory (the paper's +18.5% explanation) --")
		for _, mem := range []int{0, 1} {
			mr, err := experiments.AblationMemory(p, mem)
			if err != nil {
				return err
			}
			label := "unlimited memory"
			if mem > 0 {
				label = fmt.Sprintf("%d MB per machine", mem)
			}
			fmt.Printf("%-20s FC=%.2fx dist=%.2fx combined=%.2fx vs product %+.1f%%\n",
				label, mr.SingleFCSpeedup, mr.DistSpeedup, mr.CombinedSpeedup,
				100*(mr.Multiplicative-1))
		}
		fmt.Println()
	}

	if scaling {
		fmt.Println("=== Scaling: homogeneous cluster sweep (frame division + FC) ===")
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
		fmt.Println(tb.String())
	}
	return nil
}
