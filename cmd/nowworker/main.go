// Command nowworker is a render-farm slave for a physical network of
// workstations: it dials the master started with `nowrender -mode
// master`, receives the scene, and renders the tasks it is assigned
// until the master shuts it down.
//
//	nowworker -master host:7946 -name ws01
//
// The dial retries with exponential backoff, so workers can be started
// before the master is listening — the launch order the paper's PVM
// console allowed. SIGINT/SIGTERM trigger a graceful departure: the
// worker finishes the frame it is rendering, tells the master where it
// stopped (so the rest of its task is requeued on the surviving
// workers), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nowrender/internal/buildinfo"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
	"nowrender/internal/msg"
	"nowrender/internal/scenes"
	"nowrender/internal/timeline"
)

func main() {
	var (
		master   = flag.String("master", "127.0.0.1:7946", "master address")
		name     = flag.String("name", "", "worker name (default: host:pid)")
		maxWait  = flag.Duration("max-wait", 2*time.Minute, "give up dialing the master after this long (0 = retry forever)")
		threads  = flag.Int("threads", 0, "intra-frame render threads when the master doesn't specify (0 = all cores)")
		deadline = flag.Duration("master-deadline", 0, "exit if the master stays silent this long while idle (0 = wait forever; set well above the master's -heartbeat)")
		chaos    = flag.String("chaos", "", "fault-injection plan applied to this worker's connection, e.g. seed=7,drop=0.01,corrupt=0.005")
		tlOut    = flag.String("timeline", "", "write this worker's local timeline as Chrome trace JSON to this file on exit")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional arg silently stops flag parsing, so flags
		// after it would be ignored; fail loudly instead.
		fmt.Fprintf(os.Stderr, "nowworker: unexpected argument %q (flags take = syntax, e.g. -chaos=seed=7)\n", flag.Arg(0))
		os.Exit(2)
	}
	if *version {
		fmt.Println("nowworker", buildinfo.Version())
		return
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fmt.Printf("nowworker %s (%s)\n", *name, buildinfo.Version())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	opts := farm.WorkerOptions{Threads: *threads, MasterDeadline: *deadline}
	if *tlOut != "" {
		opts.Timeline = timeline.New(0)
	}
	err := run(ctx, *master, *name, *maxWait, *chaos, opts)
	if *tlOut != "" {
		if werr := dumpTimeline(*tlOut, *name, opts.Timeline); werr != nil {
			fmt.Fprintln(os.Stderr, "nowworker: timeline:", werr)
		}
	}
	switch {
	case err == nil:
		return
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "nowworker %s: interrupted, departed gracefully\n", *name)
	default:
		fmt.Fprintln(os.Stderr, "nowworker:", err)
		os.Exit(1)
	}
}

// dumpTimeline snapshots the worker's local recorder into a Chrome
// trace file. The local view is uncorrected worker-clock time; the
// master's merged timeline (nowrender -timeline) is the offset-corrected
// cluster view.
func dumpTimeline(path, name string, rec *timeline.Recorder) error {
	if rec == nil {
		return fmt.Errorf("no recorder")
	}
	tl := rec.Snapshot()
	tl.Meta["worker"] = name
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("worker %s: timeline written to %s (%d events)\n", name, path, tl.Events())
	return nil
}

// dialRetry dials the master with exponential backoff (250ms doubling,
// capped at 5s) until it connects, ctx is cancelled, or maxWait passes.
func dialRetry(ctx context.Context, master string, maxWait time.Duration) (msg.Conn, error) {
	var deadline <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		deadline = t.C
	}
	backoff := 250 * time.Millisecond
	for {
		conn, err := msg.Dial(master)
		if err == nil {
			return conn, nil
		}
		fmt.Fprintf(os.Stderr, "nowworker: master %s not up (%v), retrying in %v\n", master, err, backoff)
		select {
		case <-time.After(backoff):
		case <-deadline:
			return nil, fmt.Errorf("master %s unreachable after %v: %w", master, maxWait, err)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

func run(ctx context.Context, master, name string, maxWait time.Duration, chaos string, opts farm.WorkerOptions) error {
	plan, err := faulty.ParsePlan(chaos)
	if err != nil {
		return err
	}
	conn, err := dialRetry(ctx, master, maxWait)
	if err != nil {
		return err
	}
	defer conn.Close()

	// The master ships the scene first.
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("waiting for scene: %w", err)
	}
	if m.Tag != farm.TagSceneSDL {
		return fmt.Errorf("expected scene message, got tag %d", m.Tag)
	}
	var spec farm.SceneMsg
	if err := msg.Decode(m.Data, &spec); err != nil {
		return err
	}
	sc, err := scenes.FromPayload(spec.Kind, spec.Source)
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: scene %q loaded (%d frames), entering render loop\n",
		name, sc.Name, sc.Frames)
	// Chaos wraps after the scene handshake so fault injection exercises
	// the render protocol, not the bootstrap.
	loopConn := conn
	if plan != nil {
		loopConn = plan.Wrap(name, conn)
	}
	return farm.RunWorkerWithOptions(ctx, name, loopConn, sc, opts)
}
