package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/tga"
	"nowrender/internal/timeline"
)

// usage is the help text of every flag that more than one verb takes, so
// that one name has one meaning on every verb; each verb picks its own
// default.
var usage = map[string]string{
	"listen":   "address to listen on",
	"scene":    "scene: newton[:frames], bouncing[:frames], gallery[:frames], meshgallery[:frames], quickstart, or a .sdl file",
	"out":      "directory to write images into (empty = write none)",
	"timeline": "write this process's timeline as Chrome trace JSON to this file (view it in Perfetto or with now trace)",
	"threads":  "intra-frame render threads per farm worker (0 = all cores, 1 = serial; pixels are identical for every value)",
	"workers":  "goroutine workers of the local driver, or TCP workers the master waits for (0 = one per machine)",
	// The example plan runs under every verb's defaults: it protects a
	// machine of the paper's testbed.
	"chaos": "fault-injection plan, e.g. seed=7,drop=0.01,corrupt=0.005,delay=0.02:5ms,protect=indigo2-200 " +
		"(render's local and virtual modes, serve's farm runs, or a worker's own connection; protect= names a virtual machine " +
		"indigo2-200, indigo2-100, indigo-100, or ws00, ws01, ... with serve -machines, or a local worker worker00, worker01, ...)",
}

// farmFlags declares the farm's fault-tolerance and wire flags, which
// render and serve share, onto the config fields they set.
func farmFlags(fs *flag.FlagSet, liveness *time.Duration, speculate, wireDelta, wireCompress *bool) {
	fs.DurationVar(liveness, "liveness", 0, "retire a worker silent, or holding a task without progress, this long; the master pings every quarter of it (0 = off; set well above the slowest frame)")
	fs.BoolVar(speculate, "speculate", false, "speculatively re-issue the slowest in-flight task to idle workers")
	fs.BoolVar(wireDelta, "wire-delta", false, "ship dirty-span delta frames instead of full regions (pixels are identical either way)")
	fs.BoolVar(wireCompress, "wire-compress", false, "compress frame payloads with the span codec (pixels are identical either way)")
}

// size is the -size flag's WxH value.
type size struct{ w, h int }

func (s *size) String() string { return fmt.Sprintf("%dx%d", s.w, s.h) }

func (s *size) Set(v string) error {
	var rest string
	if n, _ := fmt.Sscanf(v, "%dx%d%s", &s.w, &s.h, &rest); n != 2 || s.w <= 0 || s.h <= 0 {
		return errors.New("want WxH with both positive, e.g. 240x320")
	}
	return nil
}

func sizeFlag(fs *flag.FlagSet) *size {
	s := &size{240, 320}
	fs.Var(s, "size", "frame size `WxH` in pixels (the paper's is 240x320)")
	return s
}

// checkProtect refuses a -chaos protect= name that names none of the
// given machines and local workers worker00, worker01, ...: the survivor
// it was meant to keep would be faulted too.
func checkProtect(plan *faulty.Plan, machines []cluster.Machine, workers int) error {
	var names []string
	for _, m := range machines {
		names = append(names, m.Name)
	}
	for i := range workers {
		names = append(names, fmt.Sprintf("worker%02d", i))
	}
	for _, p := range plan.Protect {
		if !slices.Contains(names, p) {
			return usagef("-chaos protect=%s names no worker here (%s)", p, strings.Join(names, ", "))
		}
	}
	return nil
}

// parseNamed reads a -flag list such as "alice=3,bob" into name → value,
// each name once and every value positive. A bare name takes the value
// bare, or is refused when bare is 0.
func parseNamed[T int | float64](flagName, s string, bare T, parse func(string) (T, error)) (map[string]T, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]T{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, hasVal := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if name == "" || !hasVal && bare == 0 {
			return nil, usagef("bad -%s entry %q (want name=value)", flagName, part)
		}
		if _, dup := out[name]; dup {
			return nil, usagef("%q repeated in -%s", name, flagName)
		}
		v := bare
		if hasVal {
			var err error
			if v, err = parse(strings.TrimSpace(val)); err != nil || v <= 0 {
				return nil, usagef("bad -%s value in %q (want a positive number)", flagName, part)
			}
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, usagef("empty -%s list %q", flagName, s)
	}
	return out, nil
}

// frameWriter returns an emit function that writes each frame into dir
// as frameNNNN.tga, or .png with usePNG; with dir empty it writes none.
func frameWriter(dir string, usePNG bool) func(int, *fb.Framebuffer) error {
	return func(frame int, img *fb.Framebuffer) error {
		if dir == "" {
			return nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("frame%04d", frame))
		if usePNG {
			return tga.WriteFilePNG(name+".png", img)
		}
		return tga.WriteFile(name+".tga", img)
	}
}

// recorder returns a timeline recorder when a -timeline path is set.
func recorder(path string) *timeline.Recorder {
	if path == "" {
		return nil
	}
	return timeline.New(0)
}

// writeTimeline writes tl to path as Chrome trace JSON; an empty path
// writes nothing.
func writeTimeline(stdout io.Writer, path string, tl *timeline.Timeline) error {
	if path == "" {
		return nil
	}
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
	fmt.Fprintf(stdout, "timeline: %s (%d events; view it in Perfetto or with `now trace %s`)\n", path, tl.Events(), path)
	return nil
}

// serveUntil runs serve until it fails or ctx is done; then the caller
// stops what serve runs.
func serveUntil(ctx context.Context, serve func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- serve() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return nil
	}
}
