// Command nowrender renders an animation with the frame-coherent
// parallel renderer, in any of the paper's configurations:
//
//	nowrender -scene newton -mode single        # 1 CPU, no coherence
//	nowrender -scene newton -mode coherent      # 1 CPU + frame coherence
//	nowrender -scene newton -mode virtual       # virtual NOW (paper's testbed)
//	nowrender -scene newton -mode local         # goroutine workers, wall clock
//	nowrender -scene newton -mode master -listen :7946 -workers 3
//
// The master mode drives real TCP workers started with cmd/nowworker.
// Frames are written as TGA (the paper's format) into -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nowrender/internal/buildinfo"
	"nowrender/internal/cluster"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
	"nowrender/internal/timeline"
)

// faultOpts bundles the fault-tolerance and fault-injection flags shared
// by the local and master modes.
type faultOpts struct {
	heartbeat, liveness, stall time.Duration
	frameRetries               int
	speculate                  bool
	chaos                      string
	wireDelta, wireCompress    bool
	dfbSinks                   int
	dfbAddrs                   string
}

// apply wires the options into a farm config; -chaos parses into the
// fault-injection plan of the local and virtual drivers.
func (f faultOpts) apply(cfg *farm.Config) error {
	cfg.Heartbeat = f.heartbeat
	cfg.Liveness = f.liveness
	cfg.StallTimeout = f.stall
	cfg.FrameRetries = f.frameRetries
	cfg.Speculate = f.speculate
	cfg.WireDelta = f.wireDelta
	cfg.WireSpanCodec = f.wireCompress
	switch {
	case f.dfbAddrs != "":
		// Remote compositor fleet (nowcompose daemons): frames land at
		// the sinks, which emit them; wire modes carry the payloads.
		cfg.DFB = &farm.DFBConfig{Addrs: strings.Split(f.dfbAddrs, ",")}
	case f.dfbSinks > 0:
		cfg.DFB = &farm.DFBConfig{Sinks: f.dfbSinks}
	}
	plan, err := faulty.ParsePlan(f.chaos)
	cfg.Faults = plan
	return err
}

// chaosUsage is the -chaos help text. Its example plan runs in the
// default mode, so it protects one of the paper's testbed machines.
const chaosUsage = "fault-injection plan, e.g. seed=7,drop=0.01,corrupt=0.005,delay=0.02:5ms,protect=indigo2-200 " +
	"(local and virtual modes; protect= names local workers worker00, worker01, ... or the virtual machines " +
	"indigo2-200, indigo2-100, indigo-100; over TCP, give each nowworker its own -chaos)"

func main() {
	var (
		sceneSpec = flag.String("scene", "newton", "scene: newton[:frames], bouncing[:frames], quickstart, or a .sdl file")
		mode      = flag.String("mode", "virtual", "single | coherent | virtual | local | master")
		scheme    = flag.String("scheme", "framediv", "partitioning: seqdiv | seqdiv-static | framediv | hybrid (blocks x one subsequence per worker) | pixeldiv")
		blockW    = flag.Int("blockw", 80, "framediv and hybrid block width")
		blockH    = flag.Int("blockh", 80, "framediv and hybrid block height")
		width     = flag.Int("w", 240, "output width (paper: 240)")
		height    = flag.Int("h", 320, "output height (paper: 320)")
		outDir    = flag.String("out", "", "directory to write frame TGAs (empty = don't write)")
		workers   = flag.Int("workers", 3, "worker count (local/master modes)")
		listen    = flag.String("listen", ":7946", "master listen address (master mode)")
		coherent  = flag.Bool("coherence", true, "exploit frame coherence (virtual/local/master modes)")
		samples   = flag.Int("samples", 1, "supersamples per pixel")
		aa        = flag.Float64("aa", 0, "adaptive antialiasing threshold (0 = off; try 0.1)")
		threads   = flag.Int("threads", 0, "intra-frame render threads per worker (0 = all cores, 1 = serial; pixels are identical for every value)")
		shards    = flag.Int("shards", 0, "partition the scene into this many spatial shards (2..64) with ray forwarding between owners instead of replicating it (0 = replicated; pixels are identical either way)")
		usePNG    = flag.Bool("png", false, "write PNG instead of TGA")
		tlOut     = flag.String("timeline", "", "write the run's cluster timeline as Chrome trace JSON to this file (load in Perfetto or feed to nowtrace)")
		version   = flag.Bool("version", false, "print version and exit")

		ft faultOpts
	)
	flag.DurationVar(&ft.heartbeat, "heartbeat", 0, "master->worker ping interval (local/master modes; 0 = off)")
	flag.DurationVar(&ft.liveness, "liveness", 0, "retire a worker silent this long (0 = 4x heartbeat)")
	flag.DurationVar(&ft.stall, "stall", 0, "retire a worker holding a task without progress this long (0 = off)")
	flag.IntVar(&ft.frameRetries, "frame-retries", 0, "per-frame requeue budget before the master renders it locally (0 = 3, negative = unlimited)")
	flag.BoolVar(&ft.speculate, "speculate", false, "speculatively re-issue the slowest in-flight task to idle workers")
	flag.StringVar(&ft.chaos, "chaos", "", chaosUsage)
	flag.BoolVar(&ft.wireDelta, "wire-delta", false, "ship dirty-span delta frames instead of full regions (pixels are identical either way)")
	flag.BoolVar(&ft.wireCompress, "wire-compress", false, "compress frame payloads with the span codec (pixels are identical either way)")
	flag.IntVar(&ft.dfbSinks, "dfb", 0, "route pixels through this many in-process compositor sinks instead of the master (local mode; 0 = off)")
	flag.StringVar(&ft.dfbAddrs, "dfb-sinks", "", "comma-separated nowcompose sink addresses; pixels ship straight to them and the sinks emit the frames (master mode)")
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional arg silently stops flag parsing, so flags
		// after it would be ignored; fail loudly instead.
		fmt.Fprintf(os.Stderr, "nowrender: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *version {
		fmt.Println("nowrender", buildinfo.Version())
		return
	}
	if *shards != 0 && (*shards < 2 || *shards > objspace.MaxShards) {
		fmt.Fprintf(os.Stderr, "nowrender: -shards %d: want 0 (replicated) or 2..%d\n", *shards, objspace.MaxShards)
		os.Exit(2)
	}
	fmt.Printf("nowrender %s\n", buildinfo.Version())
	if err := run(*sceneSpec, *mode, *scheme, *blockW, *blockH, *width, *height,
		*outDir, *workers, *listen, *coherent, *samples, *aa, *threads, *shards, *usePNG, *tlOut, ft); err != nil {
		fmt.Fprintln(os.Stderr, "nowrender:", err)
		os.Exit(1)
	}
}

func run(sceneSpec, mode, schemeName string, blockW, blockH, w, h int,
	outDir string, workers int, listen string, coherent bool, samples int,
	aa float64, threads, osShards int, usePNG bool, tlOut string, ft faultOpts) error {
	sc, err := scenes.FromSpec(sceneSpec)
	if err != nil {
		return err
	}

	scheme, err := partition.Parse(schemeName, blockW, blockH)
	if err != nil {
		return err
	}

	emit := func(frame int, img *fb.Framebuffer) error {
		if outDir == "" {
			return nil
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if usePNG {
			return tga.WriteFilePNG(filepath.Join(outDir, fmt.Sprintf("frame%04d.png", frame)), img)
		}
		return tga.WriteFile(filepath.Join(outDir, fmt.Sprintf("frame%04d.tga", frame)), img)
	}

	cfg := farm.Config{
		Scene: sc, W: w, H: h, Scheme: scheme,
		Coherence: coherent, Samples: samples, Threads: threads,
		ObjSpaceShards: osShards, AAThreshold: aa,
		Workers: workers, Emit: emit,
	}
	if err := ft.apply(&cfg); err != nil {
		return err
	}
	if tlOut != "" {
		cfg.Timeline = timeline.New(0)
	}

	if err := checkChaos(cfg.Faults, mode, cfg.Workers); err != nil {
		return err
	}
	var res *farm.Result
	switch mode {
	case "single", "coherent":
		// The fastest machine alone, whole frames in one task.
		cfg.Coherence = mode == "coherent"
		cfg.Machines = cluster.PaperTestbed()[:1]
		cfg.Scheme = partition.Scheme{Sequence: true}
		res, err = farm.RenderVirtual(cfg)
		if err != nil {
			return err
		}
		report(sc.Name, mode, res)
	case "virtual":
		res, err = farm.RenderVirtual(cfg)
		if err != nil {
			return err
		}
		report(sc.Name, fmt.Sprintf("virtual/%s", scheme.Name()), res)
	case "local":
		res, err = farm.RenderLocal(cfg)
		if err != nil {
			return err
		}
		report(sc.Name, fmt.Sprintf("local/%s", scheme.Name()), res)
	case "master":
		res, err = runTCPMaster(cfg, sceneSpec, listen, workers)
		if err != nil {
			return err
		}
		report(sc.Name, fmt.Sprintf("tcp/%s", scheme.Name()), res)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if tlOut != "" {
		if err := writeTimeline(tlOut, res); err != nil {
			return err
		}
	}
	return nil
}

// checkChaos refuses a -chaos plan in a mode it cannot reach — one
// machine is no farm, and TCP workers wrap their own connections — and
// a protect= name that names none of the mode's workers, whose survivor
// would be faulted too.
func checkChaos(plan *faulty.Plan, mode string, workers int) error {
	var names []string
	switch {
	case plan == nil:
		return nil
	case mode == "master":
		return fmt.Errorf("-chaos does not reach TCP workers: start each nowworker with its own -chaos")
	case mode == "single" || mode == "coherent":
		return fmt.Errorf("-chaos needs a farm: use -mode virtual or local")
	case mode == "local":
		if workers <= 0 {
			workers = len(cluster.PaperTestbed()) // the farm's default
		}
		for i := range workers {
			names = append(names, fmt.Sprintf("worker%02d", i))
		}
	default:
		for _, m := range cluster.PaperTestbed() {
			names = append(names, m.Name)
		}
	}
	for _, p := range plan.Protect {
		if !slices.Contains(names, p) {
			return fmt.Errorf("-chaos protect=%s names no worker of this mode (%s)", p, strings.Join(names, ", "))
		}
	}
	return nil
}

// writeTimeline dumps the run's merged cluster timeline as Chrome trace
// JSON (Perfetto-loadable; analyse with cmd/nowtrace).
func writeTimeline(path string, res *farm.Result) error {
	if res == nil || res.Timeline == nil {
		return fmt.Errorf("no timeline recorded for this mode")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Timeline.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  timeline:  %s (%d events; view in Perfetto or `nowtrace %s`)\n",
		path, res.Timeline.Events(), path)
	return nil
}

// runTCPMaster accepts `workers` TCP connections, ships each the scene,
// and drives the farm protocol over them.
func runTCPMaster(cfg farm.Config, sceneSpec, listen string, workers int) (*farm.Result, error) {
	kind, data, err := scenes.SpecPayload(sceneSpec)
	if err != nil {
		return nil, err
	}
	l, err := msg.Listen(listen)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	fmt.Printf("master listening on %s, waiting for %d workers...\n", l.Addr(), workers)
	hub := msg.NewHub()
	defer hub.Close()
	for i := 0; i < workers; i++ {
		conn, err := l.Accept()
		if err != nil {
			return nil, err
		}
		// Ship the scene before the protocol starts.
		scene := msg.Encode(&farm.SceneMsg{Kind: kind, Source: data})
		if err := conn.Send(msg.Message{Tag: farm.TagSceneSDL, Data: scene}); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("tcp%02d", i)
		if err := hub.Attach(name, conn); err != nil {
			return nil, err
		}
		fmt.Printf("worker %s connected\n", name)
	}
	return farm.RunMaster(cfg, hub)
}

func report(scene, mode string, res *farm.Result) {
	total := res.Run.TotalRays()
	fmt.Printf("scene %s, mode %s\n", scene, mode)
	if len(res.Frames) > 0 {
		fmt.Printf("  frames:    %d\n", len(res.Frames))
	} else {
		// Remote-sink DFB runs: the frames live at the compositors.
		fmt.Printf("  frames:    %d (delivered at the sinks)\n", len(res.Run.Frames))
	}
	fmt.Printf("  rays:      %d (%s)\n", total.Total(), total.String())
	fmt.Printf("  makespan:  %s\n", stats.FormatDuration(res.Makespan))
	fmt.Printf("  tasks:     %d (+%d adaptive subdivisions)\n", res.TasksExecuted, res.Subdivisions)
	fmt.Printf("  traffic:   %d bytes\n", res.BytesTransferred)
	if res.Wire.FramesFull+res.Wire.FramesDelta > 0 {
		fmt.Printf("  wire:      %s\n", res.Wire)
	}
	if res.ObjSpace.Enabled() {
		fmt.Printf("  objspace:  %s\n", res.ObjSpace)
	}
	if res.Faults.Any() {
		fmt.Printf("  faults:    %s\n", res.Faults)
	}
	for _, w := range res.Workers {
		fmt.Printf("  %-12s tasks=%-3d pixels=%-8d busy=%s util=%.0f%%\n",
			w.Worker, w.TasksDone, w.PixelsDone, stats.FormatDuration(w.Busy),
			100*w.Utilisation(res.Makespan))
	}
}
