// Command now is nowrender's one program: the same binary renders, serves
// as a farm worker, the render service or its fleet broker, and analyses
// what they produce.
//
//	now render -scene newton -mode virtual          # Table 1 column (8)
//	now render -mode master -listen :7946 -workers 2
//	now worker -master master-host:7946             # on each workstation
//	now tables -table1                              # the paper's artefacts
//
// `now -h` lists the verbs and `now <verb> -h` a verb's flags; a flag
// name means the same thing on every verb that takes it. Usage errors
// exit with status 2, other failures with 1, and `now diff` exits 0, 1
// or 2 like diff(1). The first SIGINT or SIGTERM asks the verb to stop
// (a worker departs gracefully, a daemon drains); a second one kills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"nowrender/internal/buildinfo"
)

// runFunc runs a verb once its FlagSet has parsed the command line; args
// are the positional arguments left after the flags.
type runFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

type verb struct {
	name, summary string
	// declare declares the verb's flags on fs and returns its runFunc.
	declare func(fs *flag.FlagSet) runFunc
}

var verbs = []verb{
	{"render", "render an animation in any of the paper's configurations", renderFlags},
	{"worker", "run a render-farm worker for a TCP master", workerFlags},
	{"serve", "run the HTTP render-job service", serveFlags},
	{"fleetd", "run the fleet broker that leases worker slots to serve replicas", fleetdFlags},
	{"trace", "analyse a Chrome-trace timeline, from the file argument or stdin", traceFlags},
	{"diff", "compare two frames: Figure 2's actual and predicted masks, or two TGA files", diffFlags},
	{"tables", "regenerate the paper's tables, figures and ablations on the virtual NOW", tablesFlags},
}

// usageError is a command-line mistake that flag parsing alone cannot
// see, such as an out-of-range value: exit status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// errDiffer is diff's verdict that the images differ: exit status 1.
var errDiffer = errors.New("images differ")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills at once
	}()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run runs one command line and returns its exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	top := flag.NewFlagSet("now", flag.ContinueOnError)
	top.SetOutput(stderr)
	version := top.Bool("version", false, "print the version and exit")
	top.Usage = func() {
		fmt.Fprintln(stderr, "usage: now [-version] <verb> [flags]; `now <verb> -h` lists a verb's flags\n\nverbs:")
		for _, v := range verbs {
			fmt.Fprintf(stderr, "  %-8s %s\n", v.name, v.summary)
		}
	}
	if err := top.Parse(args); err != nil {
		return exitUsage(err)
	}
	if *version {
		fmt.Fprintln(stdout, "now", buildinfo.Version())
		return 0
	}
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == top.Arg(0) })
	if i < 0 {
		if top.NArg() > 0 {
			fmt.Fprintf(stderr, "now: unknown verb %q\n", top.Arg(0))
		}
		top.Usage()
		return 2
	}
	v := verbs[i]
	fn, rest, err := v.parse(top.Args()[1:], stderr)
	if err != nil {
		return exitUsage(err)
	}
	switch err := fn(ctx, rest, stdout, stderr); {
	case err == nil:
		return 0
	case errors.Is(err, errDiffer):
		return 1
	default:
		fmt.Fprintf(stderr, "now %s: %v\n", v.name, err)
		var ue usageError
		if errors.As(err, &ue) || v.name == "diff" {
			return 2
		}
		return 1
	}
}

// exitUsage maps a parse error, which has already been printed, onto an
// exit status: 0 when help was asked for, else 2.
func exitUsage(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// parse builds v's FlagSet and parses args into it. It returns the verb's
// runFunc and positional arguments, or an error it has printed.
func (v verb) parse(args []string, stderr io.Writer) (runFunc, []string, error) {
	fs := flag.NewFlagSet("now "+v.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fn := v.declare(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 && v.name != "trace" {
		// A stray positional argument silently stops flag parsing, so
		// the flags after it would be ignored; fail loudly instead.
		err := fmt.Errorf("unexpected argument %q (a value with a leading - or spaces needs the = syntax, e.g. -chaos=seed=7)", fs.Arg(0))
		fmt.Fprintf(stderr, "now %s: %v\n", v.name, err)
		return nil, nil, err
	}
	return fn, fs.Args(), nil
}
