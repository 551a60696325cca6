package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"

	"nowrender/internal/cluster"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
)

// renderFlags declares `now render`. Its -mode picks the configuration:
// single (one CPU), coherent (one CPU with frame coherence), virtual (the
// paper's testbed on the virtual NOW), local (goroutine workers on the
// wall clock), or master (TCP workers started with `now worker`).
func renderFlags(fs *flag.FlagSet) runFunc {
	var cfg farm.Config
	sceneSpec := fs.String("scene", "newton", usage["scene"])
	mode := fs.String("mode", "virtual", "single | coherent | virtual | local | master")
	scheme := fs.String("scheme", "framediv", "partitioning: seqdiv | seqdiv-static | framediv | hybrid (blocks x one subsequence per worker) | pixeldiv")
	blockW := fs.Int("blockw", 80, "framediv and hybrid block width")
	blockH := fs.Int("blockh", 80, "framediv and hybrid block height")
	sz := sizeFlag(fs)
	outDir := fs.String("out", "", usage["out"])
	usePNG := fs.Bool("png", false, "write frames as PNG instead of TGA")
	fs.IntVar(&cfg.Workers, "workers", 3, usage["workers"])
	listen := fs.String("listen", ":7946", usage["listen"])
	fs.BoolVar(&cfg.Coherence, "coherence", true, "exploit frame coherence (virtual/local/master modes)")
	fs.IntVar(&cfg.Samples, "samples", 1, "supersamples per pixel")
	fs.Float64Var(&cfg.AAThreshold, "aa", 0, "adaptive antialiasing threshold (0 = off; try 0.1)")
	fs.IntVar(&cfg.Threads, "threads", 0, usage["threads"])
	fs.IntVar(&cfg.ObjSpaceShards, "shards", 0, "partition the scene into this many spatial shards (2..64) with ray forwarding between owners instead of replicating it (0 = replicated; pixels are identical either way)")
	tlOut := fs.String("timeline", "", usage["timeline"])
	chaos := fs.String("chaos", "", usage["chaos"])
	farmFlags(fs, &cfg.Liveness, &cfg.Speculate, &cfg.WireDelta, &cfg.WireSpanCodec)

	return func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
		if s := cfg.ObjSpaceShards; s != 0 && (s < 2 || s > objspace.MaxShards) {
			return usagef("-shards %d: want 0 (replicated) or 2..%d", s, objspace.MaxShards)
		}
		sc, err := scenes.FromSpec(*sceneSpec)
		if err != nil {
			return err
		}
		if cfg.Scheme, err = partition.Parse(*scheme, *blockW, *blockH); err != nil {
			return err
		}
		if cfg.Faults, err = faulty.ParsePlan(*chaos); err != nil {
			return err
		}
		if err := checkChaos(cfg.Faults, *mode, cfg.Workers); err != nil {
			return err
		}
		cfg.Ctx, cfg.Scene, cfg.W, cfg.H = ctx, sc, sz.w, sz.h
		cfg.Timeline = recorder(*tlOut)

		var res *farm.Result
		label := *mode + "/" + cfg.Scheme.Name()
		switch *mode {
		case "single", "coherent":
			// The fastest machine alone, whole frames in one task.
			cfg.Coherence = *mode == "coherent"
			cfg.Machines = cluster.PaperTestbed()[:1]
			cfg.Scheme = partition.Scheme{Sequence: true}
			label = *mode
			res, err = farm.RenderVirtual(cfg)
		case "virtual":
			res, err = farm.RenderVirtual(cfg)
		case "local":
			res, err = farm.RenderLocal(cfg)
		case "master":
			res, err = runTCPMaster(ctx, stdout, cfg, *sceneSpec, *listen)
		default:
			return usagef("unknown -mode %q", *mode)
		}
		if err != nil {
			return err
		}
		emit := frameWriter(*outDir, *usePNG)
		for f, img := range res.Frames {
			if err := emit(f, img); err != nil {
				return err
			}
		}
		report(stdout, sc.Name, label, res)
		return writeTimeline(stdout, *tlOut, res.Timeline)
	}
}

// checkChaos refuses a -chaos plan in a mode it cannot reach — one
// machine is no farm, and TCP workers wrap their own connections — and a
// protect= name that names none of the mode's workers.
func checkChaos(plan *faulty.Plan, mode string, workers int) error {
	switch {
	case plan == nil:
		return nil
	case mode == "master":
		return usagef("-chaos does not reach TCP workers: give each `now worker` its own -chaos")
	case mode == "single" || mode == "coherent":
		return usagef("-chaos needs a farm: use -mode virtual or local")
	case mode == "local":
		if workers <= 0 {
			workers = len(cluster.PaperTestbed()) // the farm's default
		}
		return checkProtect(plan, nil, workers)
	}
	return checkProtect(plan, cluster.PaperTestbed(), 0)
}

// runTCPMaster accepts cfg.Workers TCP connections, ships each the
// scene, and drives the farm protocol over them.
func runTCPMaster(ctx context.Context, stdout io.Writer, cfg farm.Config, sceneSpec, listen string) (*farm.Result, error) {
	kind, data, err := scenes.SpecPayload(sceneSpec)
	if err != nil {
		return nil, err
	}
	l, err := msg.Listen(listen)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	defer context.AfterFunc(ctx, func() { l.Close() })()
	fmt.Fprintf(stdout, "master listening on %s, waiting for %d workers...\n", l.Addr(), cfg.Workers)
	hub := msg.NewHub()
	defer hub.Close()
	scene := msg.Encode(&farm.SceneMsg{Kind: kind, Source: data})
	for i := 0; i < cfg.Workers; i++ {
		conn, err := l.Accept()
		if err != nil {
			return nil, cmp.Or(ctx.Err(), err)
		}
		// Ship the scene before the protocol starts.
		if err := conn.Send(msg.Message{Tag: farm.TagSceneSDL, Data: scene}); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("tcp%02d", i)
		if err := hub.Attach(name, conn); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "worker %s connected\n", name)
	}
	return farm.RunMaster(cfg, hub)
}

func report(w io.Writer, scene, mode string, res *farm.Result) {
	total := res.Run.TotalRays()
	fmt.Fprintf(w, "scene %s, mode %s\n", scene, mode)
	fmt.Fprintf(w, "  frames:    %d\n", len(res.Frames))
	fmt.Fprintf(w, "  rays:      %d (%s)\n", total.Total(), total.String())
	fmt.Fprintf(w, "  makespan:  %s\n", stats.FormatDuration(res.Makespan))
	fmt.Fprintf(w, "  tasks:     %d (+%d adaptive subdivisions)\n", res.TasksExecuted, res.Subdivisions)
	fmt.Fprintf(w, "  traffic:   %d bytes\n", res.BytesTransferred)
	if res.Wire.FramesFull+res.Wire.FramesDelta > 0 {
		fmt.Fprintf(w, "  wire:      %s\n", res.Wire)
	}
	if res.ObjSpace.Enabled() {
		fmt.Fprintf(w, "  objspace:  %s\n", res.ObjSpace)
	}
	if res.Faults.Any() {
		fmt.Fprintf(w, "  faults:    %s\n", res.Faults)
	}
	for _, wk := range res.Workers {
		fmt.Fprintf(w, "  %-12s tasks=%-3d pixels=%-8d busy=%s util=%.0f%%\n",
			wk.Worker, wk.TasksDone, wk.PixelsDone, stats.FormatDuration(wk.Busy),
			100*wk.Utilisation(res.Makespan))
	}
}
