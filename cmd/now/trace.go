package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"nowrender/internal/timeline"
)

// traceFlags declares `now trace`, which analyses a Chrome-trace timeline
// that a verb's -timeline wrote: per-track busy/idle breakdowns, the
// critical frames that bounded the makespan, and the load imbalance
// across frame-rendering tracks.
func traceFlags(*flag.FlagSet) runFunc {
	return func(_ context.Context, args []string, stdout, _ io.Writer) error {
		var in io.Reader = os.Stdin
		src := "stdin"
		switch len(args) {
		case 0:
		case 1:
			f, err := os.Open(args[0])
			if err != nil {
				return err
			}
			defer f.Close()
			in, src = f, args[0]
		default:
			return usagef("expected at most one trace file, got %d arguments", len(args))
		}
		tl, err := timeline.ReadChromeTrace(in)
		if err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		// An event-free trace means the run recorded nothing — a
		// truncated dump or a render that never started. An empty report
		// would read as "analysed fine, nothing notable", so fail loudly
		// instead: scripts gating on the exit status must see this.
		if tl.Events() == 0 {
			return fmt.Errorf("%s: trace contains no events (empty or truncated timeline)", src)
		}
		timeline.Analyze(tl).Format(stdout)
		return nil
	}
}
