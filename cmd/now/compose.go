package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sync/atomic"

	"nowrender/internal/buildinfo"
	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
)

// composeFlags declares `now compose`, a distributed-framebuffer
// compositor sink for the sinks `now render -dfb-sinks` names. It listens
// for the master's control connection and for DFB-capable workers,
// reassembles its shard of the animation from key-frames and dirty-span
// deltas, confirms every merged region to the master, and writes each
// completed frame the moment it assembles — the master never touches the
// pixels. The daemon is persistent: a run ends with the master's close
// message (or its connection dropping), and the next master init starts
// a fresh shard, so one fleet of sinks serves any number of renders.
func composeFlags(fs *flag.FlagSet) runFunc {
	listen := fs.String("listen", ":7947", usage["listen"])
	name := fs.String("name", "", usage["name"])
	outDir := fs.String("out", "", usage["out"])
	usePNG := fs.Bool("png", false, usage["png"])
	tlOut := fs.String("timeline", "", usage["timeline"])

	return func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
		l, err := msg.Listen(*listen)
		if err != nil {
			return err
		}
		defer l.Close()
		if *name == "" {
			*name = l.Addr()
		}
		fmt.Fprintf(stdout, "now compose %s (%s) listening on %s\n", *name, buildinfo.Version(), l.Addr())

		rec := recorder(*tlOut)
		var delivered atomic.Uint64
		emit := frameWriter(*outDir, *usePNG)
		sink := compositor.New(compositor.Config{
			Name:     *name,
			Timeline: rec,
			OnFrame: func(frame int, img *fb.Framebuffer) error {
				delivered.Add(1)
				return emit(frame, img)
			},
		})
		defer sink.Close()

		// Accept until shutdown; the sink tells master and worker conns
		// apart by the first message each carries.
		err = serveUntil(ctx, func() error {
			for {
				conn, err := l.Accept()
				if err != nil {
					return err
				}
				if err := sink.AddConn(conn); err != nil {
					conn.Close()
					return err
				}
			}
		})
		if err != nil && !sink.Closed() {
			return err
		}
		fmt.Fprintf(stdout, "now compose %s: shutting down (%d frames delivered)\n", *name, delivered.Load())
		sink.Close()
		if ferr := sink.Err(); ferr != nil {
			return fmt.Errorf("frame emit: %w", ferr)
		}
		tl := rec.Snapshot()
		tl.Meta["sink"] = *name
		return writeTimeline(stdout, *tlOut, tl)
	}
}
