// Command benchtab regenerates the paper's evaluation artefacts on the
// deterministic virtual NOW:
//
//	benchtab -table1              # Table 1: the Newton performance table
//	benchtab -fig2 -frame 10      # Figure 2: actual vs predicted diffs
//	benchtab -fig4                # Figure 4: partition assignment maps
//	benchtab -ablations           # design-choice ablations from DESIGN.md
//	benchtab -scaling             # cluster-size scaling sweep
//	benchtab -parallel            # intra-frame thread sweep -> BENCH_parallel.json
//	benchtab -wire                # frame codec sweep -> BENCH_wire.json
//	benchtab -sched               # multi-tenant policy sweep -> BENCH_sched.json
//	benchtab -fleet               # multi-master replica sweep -> BENCH_fleet.json
//	benchtab -all                 # everything
//
// The default workload is the paper's Newton scene. -full runs the
// paper's exact size (240x320, 45 frames — minutes of CPU); the default
// reduced size preserves every qualitative result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nowrender/internal/experiments"
	"nowrender/internal/farm"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
)

func main() {
	// Every artefact selector is declared through sel, so "nothing
	// selected means everything" and -all range over the same list and a
	// new sweep cannot be left out of either.
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
		parallel  = sel("parallel", "intra-frame thread sweep, written to BENCH_parallel.json")
		wire      = sel("wire", "frame codec sweep (full, delta, delta+span), written to BENCH_wire.json")
		wireCheck = flag.Bool("check", false, "with -wire: gate the sweep against the committed BENCH_wire.json baseline, exiting nonzero on violation")
		baseline  = flag.String("baseline", "BENCH_wire.json", "committed baseline path for -check")
		dfbB      = sel("dfb", "distributed-framebuffer routing sweep (master vs compositor sinks), written to BENCH_dfb.json")
		timelineB = sel("timeline", "event-recorder overhead bench (off vs on), written to BENCH_timeline.json")
		schedB    = sel("sched", "multi-tenant scheduling policy sweep (fifo vs priority vs fair), written to BENCH_sched.json")
		fleetB    = sel("fleet", "multi-master control-plane sweep (1 vs 2 vs 3 replicas over one shared fleet), written to BENCH_fleet.json")
		all       = flag.Bool("all", false, "run everything")
		full      = flag.Bool("full", false, "paper-scale workload (240x320, 45 frames)")
		frame     = flag.Int("frame", 10, "frame for -fig2")
		outDir    = flag.String("out", "", "directory for figure images")
		sceneSpec = flag.String("scene", "newton", "workload scene spec")
		wireScene = flag.String("wire-scene", "gallery", "coherence bench scene for the -wire codec sweep")
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
	if err := run(*table1, *fig2, *fig4, *ablations, *scaling, *parallel, *wire,
		*dfbB, *timelineB, *schedB, *fleetB,
		*full, *frame, *outDir, *sceneSpec, *wireScene, *csvOut,
		*wireCheck, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(table1, fig2, fig4, ablations, scaling, parallel, wire, dfbB, timelineB, schedB, fleetB, full bool, frame int, outDir, sceneSpec, wireScene string, csvOut, wireCheck bool, baselinePath string) error {
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
		for _, mem := range []int{0, 2} {
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

	if parallel {
		fmt.Println("=== Parallel: intra-frame tile-pool thread sweep (wall clock) ===")
		frames := 4
		if full {
			frames = 8
		}
		pts, err := experiments.ParallelSweep(p, []int{1, 2, 4, 8}, frames)
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range pts {
			tb.AddRow("threads", fmt.Sprintf("%d", pt.Threads),
				"ms/frame", fmt.Sprintf("%.1f", pt.MSPerFrame),
				"speedup", fmt.Sprintf("%.2f", pt.Speedup),
				"identical", fmt.Sprintf("%v", pt.IdenticalToSerial))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_parallel.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}

	if wire {
		wsc, err := scenes.FromSpec(wireScene)
		if err != nil {
			return err
		}
		fmt.Printf("=== Wire: frame codec sweep on %s (full, delta, delta+span) ===\n", wsc.Name)
		frames := 16
		if full {
			frames = 32
		}
		// The wire sweep always measures at the paper's canonical 240x320
		// frame size, regardless of -quick: BENCH_wire.json is a committed
		// baseline compared across runs by -check, so its workload must
		// not vary with the convenience flags of the other experiments.
		const wireW, wireH = 240, 320
		// Read the committed baseline before anything overwrites it.
		var baseBench farm.WireBench
		if wireCheck {
			raw, err := os.ReadFile(baselinePath)
			if err != nil {
				return fmt.Errorf("-check: baseline: %w", err)
			}
			if err := json.Unmarshal(raw, &baseBench); err != nil {
				return fmt.Errorf("-check: baseline %s: %w", baselinePath, err)
			}
		}
		bench, err := farm.WireSweep(wsc, wireW, wireH, frames)
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range bench.Modes {
			tb.AddRow("mode", pt.Mode,
				"bytes/frame", fmt.Sprintf("%.0f", pt.BytesPerFrame),
				"ratio", fmt.Sprintf("%.2fx", pt.RatioVsFull),
				"enc ns/frame", fmt.Sprintf("%.0f", pt.EncodeNSPerFrame),
				"key enc ns", fmt.Sprintf("%.0f", pt.KeyEncodeNS),
				"steady enc", fmt.Sprintf("%.0f", pt.SteadyEncodeNSPerFrame),
				"dec ns/frame", fmt.Sprintf("%.0f", pt.DecodeNSPerFrame),
				"deltas", fmt.Sprintf("%d", pt.FramesDelta),
				"span", fmt.Sprintf("%d", pt.FramesSpan),
				"identical", fmt.Sprintf("%v", pt.Identical))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_wire.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
		if wireCheck {
			if bad := farm.WireCheck(&baseBench, bench); len(bad) > 0 {
				for _, msg := range bad {
					fmt.Fprintln(os.Stderr, "wire check FAIL:", msg)
				}
				return fmt.Errorf("wire perf gate: %d violation(s) against %s", len(bad), baselinePath)
			}
			fmt.Printf("wire check OK against %s\n\n", baselinePath)
		}
	}

	if dfbB {
		wsc, err := scenes.FromSpec(wireScene)
		if err != nil {
			return err
		}
		fmt.Printf("=== DFB: master-ingress routing sweep on %s (master vs compositor sinks) ===\n", wsc.Name)
		frames := 8
		if full {
			frames = 16
		}
		pts, err := farm.DFBSweep(wsc, p.W, p.H, frames, 4, []int{1, 2, 4})
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range pts {
			tb.AddRow("mode", pt.Mode,
				"master B/frame", fmt.Sprintf("%.0f", pt.MasterIngressPerFrame),
				"ratio", fmt.Sprintf("%.1fx", pt.IngressRatio),
				"sink bytes", fmt.Sprintf("%d", pt.SinkIngressBytes),
				"acks", fmt.Sprintf("%d", pt.FramesAcked),
				"identical", fmt.Sprintf("%v", pt.Identical))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_dfb.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}

	if timelineB {
		fmt.Println("=== Timeline: event-recorder overhead (off vs on) ===")
		frames := 6
		if full {
			frames = 12
		}
		pts, err := experiments.TimelineSweep(p, 0, frames, 3)
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range pts {
			tb.AddRow("recorder", pt.Mode,
				"ms/frame", fmt.Sprintf("%.2f", pt.MSPerFrame),
				"overhead", fmt.Sprintf("%+.2f%%", pt.OverheadPct),
				"events", fmt.Sprintf("%d", pt.Events))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_timeline.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}

	if schedB {
		fmt.Println("=== Sched: multi-tenant policy sweep (heavy flood vs light tenants) ===")
		heavy := 4
		if full {
			heavy = 8
		}
		pts, err := experiments.SchedSweep([]string{"fifo", "priority", "fair"}, heavy)
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range pts {
			tb.AddRow("policy", pt.Policy,
				"tenant", pt.Tenant,
				"jobs", fmt.Sprintf("%d", pt.Jobs),
				"mean queue ms", fmt.Sprintf("%.1f", pt.MeanQueueMS),
				"max queue ms", fmt.Sprintf("%.1f", pt.MaxQueueMS),
				"admit slots", fmt.Sprintf("%v", pt.AdmitSlots))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_sched.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}

	if fleetB {
		fmt.Println("=== Fleet: multi-master replicas over one shared worker fleet ===")
		jobs := 6
		if full {
			jobs = 12
		}
		pts, err := experiments.FleetSweep([]int{1, 2, 3}, jobs)
		if err != nil {
			return err
		}
		var tb stats.Table
		for _, pt := range pts {
			tb.AddRow("replicas", fmt.Sprintf("%d", pt.Replicas),
				"jobs", fmt.Sprintf("%d", pt.Jobs),
				"fleet slots", fmt.Sprintf("%d", pt.FleetSlots),
				"wall ms", fmt.Sprintf("%.1f", pt.WallMS),
				"jobs/sec", fmt.Sprintf("%.2f", pt.JobsPerSec),
				"grants", fmt.Sprintf("%d", pt.Grants),
				"waits", fmt.Sprintf("%d", pt.Waits))
		}
		fmt.Println(tb.String())
		data, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		jsonPath := "BENCH_fleet.json"
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			jsonPath = filepath.Join(outDir, jsonPath)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return nil
}
