package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nowrender/internal/buildinfo"
	"nowrender/internal/farm"
	"nowrender/internal/faulty"
	"nowrender/internal/msg"
	"nowrender/internal/scenes"
)

// workerFlags declares `now worker`, a render-farm slave for a physical
// network of workstations: it dials the master started with `now render
// -mode master`, receives the scene, and renders the tasks it is
// assigned until the master shuts it down. The dial retries with
// backoff, so workers can be started before the master is listening —
// the launch order the paper's PVM console allowed. On a signal the
// worker departs gracefully: it finishes the frame it is rendering and
// tells the master where it stopped, so the rest of its task is
// requeued on the surviving workers.
func workerFlags(fs *flag.FlagSet) runFunc {
	var opts farm.WorkerOptions
	master := fs.String("master", "127.0.0.1:7946", "master address")
	name := fs.String("name", "", "this worker's name in timelines and logs (default: host-pid)")
	maxWait := fs.Duration("max-wait", 2*time.Minute, "give up dialing the master after this long (0 = retry forever)")
	fs.IntVar(&opts.Threads, "threads", 0, usage["threads"])
	fs.DurationVar(&opts.MasterDeadline, "master-deadline", 0, "exit if the master stays silent this long while idle (0 = wait forever; set well above the master's -liveness/4)")
	chaos := fs.String("chaos", "", usage["chaos"])
	tlOut := fs.String("timeline", "", usage["timeline"])

	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		plan, err := faulty.ParsePlan(*chaos)
		if err != nil {
			return usagef("%v", err)
		}
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		fmt.Fprintf(stdout, "now worker %s (%s)\n", *name, buildinfo.Version())
		opts.Timeline = recorder(*tlOut)
		err = runWorker(ctx, stdout, stderr, *master, *name, *maxWait, plan, opts)
		// The local view is uncorrected worker-clock time; the master's
		// merged timeline (now render -timeline) is the offset-corrected
		// cluster view.
		tl := opts.Timeline.Snapshot()
		tl.Meta["worker"] = *name
		if werr := writeTimeline(stdout, *tlOut, tl); werr != nil {
			fmt.Fprintln(stderr, "now worker: timeline:", werr)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(stderr, "now worker %s: interrupted, departed gracefully\n", *name)
			return nil
		}
		return err
	}
}

// dialRetry dials the master with exponential backoff (250ms doubling,
// capped at 5s) until it connects, ctx is cancelled, or maxWait passes.
func dialRetry(ctx context.Context, stderr io.Writer, master string, maxWait time.Duration) (msg.Conn, error) {
	start := time.Now()
	for backoff := 250 * time.Millisecond; ; backoff = min(2*backoff, 5*time.Second) {
		conn, err := msg.Dial(master)
		if err == nil {
			return conn, nil
		}
		if maxWait > 0 && time.Since(start) >= maxWait {
			return nil, fmt.Errorf("master %s unreachable after %v: %w", master, maxWait, err)
		}
		fmt.Fprintf(stderr, "now worker: master %s not up (%v), retrying in %v\n", master, err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func runWorker(ctx context.Context, stdout, stderr io.Writer, master, name string, maxWait time.Duration, plan *faulty.Plan, opts farm.WorkerOptions) error {
	conn, err := dialRetry(ctx, stderr, master, maxWait)
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
	fmt.Fprintf(stdout, "worker %s: scene %q loaded (%d frames), entering render loop\n",
		name, sc.Name, sc.Frames)
	// Chaos wraps after the scene handshake so fault injection exercises
	// the render protocol, not the bootstrap.
	loopConn := conn
	if plan != nil {
		loopConn = plan.Wrap(name, conn)
	}
	return farm.RunWorkerWithOptions(ctx, name, loopConn, sc, opts)
}
