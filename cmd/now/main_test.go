package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nowrender/internal/farm"
	"nowrender/internal/fleetd"
	"nowrender/internal/msg"
	"nowrender/internal/service"
)

// runNow runs one command line to completion and returns its exit status
// and what it printed on stdout and stderr. A daemon that starts where
// the command line should have been refused is stopped after a minute.
func runNow(args ...string) (code int, stdout, stderr string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

var listenRE = regexp.MustCompile(`listening on ([^\s,]+)`)

// output collects a background verb's stdout and stderr and hands over
// the first address it says it listens on.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1: the one address sent
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	had := listenRE.Match(o.buf.Bytes())
	o.buf.Write(p)
	if m := listenRE.FindSubmatch(o.buf.Bytes()); m != nil && !had {
		o.addr <- string(m[1])
	}
	return len(p), nil
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// background is a verb running on its own goroutine.
type background struct {
	cancel context.CancelFunc
	done   chan int
	out    *output
}

// start runs a command line in the background and returns once it has
// printed the address it listens on.
func start(t *testing.T, args ...string) (*background, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b := &background{cancel: cancel, done: make(chan int, 1), out: &output{addr: make(chan string, 1)}}
	t.Cleanup(func() { b.stop() })
	go func() { b.done <- run(ctx, args, b.out, b.out) }()
	select {
	case addr := <-b.out.addr:
		return b, addr
	case code := <-b.done:
		b.done <- code
		t.Fatalf("now %s exited %d before listening:\n%s", strings.Join(args, " "), code, b.out)
	case <-time.After(10 * time.Second):
		t.Fatalf("now %s did not listen:\n%s", strings.Join(args, " "), b.out)
	}
	return nil, ""
}

// wait returns the verb's exit status once it ends by itself.
func (b *background) wait() int {
	code := <-b.done
	b.done <- code
	return code
}

// stop cancels the verb, as a signal would, and returns its exit status.
func (b *background) stop() int {
	b.cancel()
	return b.wait()
}

// TestEveryVerb runs each verb's -h, which must exit 0, and one real
// invocation. The daemons listen on a free port, print the address they
// bound, answer one request there, and stop when their ctx is cancelled.
func TestEveryVerb(t *testing.T) {
	dir := t.TempDir()
	trace := writeRealTrace(t)
	for _, tc := range []struct {
		args []string
		// poke sends a daemon one request at the address it printed.
		poke func(t *testing.T, addr string)
		want string // in the real invocation's output
	}{
		{args: []string{"render", "-scene", "newton:2", "-size", "16x12", "-out", filepath.Join(dir, "render"), "-png", "-timeline", filepath.Join(dir, "render.json")},
			want: "timeline: " + filepath.Join(dir, "render.json")},
		{args: []string{"worker", "-name", "ws01", "-threads", "1", "-timeline", filepath.Join(dir, "worker.json"), "-master"},
			want: "timeline: " + filepath.Join(dir, "worker.json")},
		{args: []string{"serve", "-listen", "127.0.0.1:0", "-max-jobs", "1", "-pprof"},
			poke: func(t *testing.T, addr string) {
				for _, path := range []string{"/metrics", "/debug/pprof/"} {
					resp, err := http.Get("http://" + addr + path)
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: %s", path, resp.Status)
					}
				}
			},
			want: "now serve: shutting down"},
		{args: []string{"fleetd", "-listen", "127.0.0.1:0", "-members", "ws01=2", "-timeline", filepath.Join(dir, "fleetd.json")},
			poke: func(t *testing.T, addr string) {
				rp, err := fleetd.NewReplicaPool(fleetd.ClientConfig{
					Replica: "test", Dial: func() (msg.Conn, error) { return msg.Dial(addr) },
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				lease, err := rp.Acquire(context.Background(), 1)
				if err != nil {
					t.Fatal(err)
				}
				lease.Return()
			},
			want: "1 grants"},
		{args: []string{"trace", trace}, want: "w0"},
		{args: []string{"diff", "-scene", "newton:3", "-size", "16x12", "-frame", "1", "-out", filepath.Join(dir, "diff")},
			want: "wrote 4 images"},
		{args: []string{"tables", "-scene", "newton:2", "-csv"}, want: "=== Scaling"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			if code, _, stderr := runNow(tc.args[0], "-h"); code != 0 || !strings.Contains(stderr, "now "+tc.args[0]) {
				t.Errorf("now %s -h: exit %d\n%s", tc.args[0], code, stderr)
			}
			var code int
			var out string
			switch {
			case tc.poke != nil:
				b, addr := start(t, tc.args...)
				tc.poke(t, addr)
				code, out = b.stop(), b.out.String()
			case tc.args[0] == "worker":
				master, addr := start(t, "render", "-mode", "master", "-listen", "127.0.0.1:0", "-workers", "1",
					"-scene", "newton:2", "-size", "16x12")
				code, out, _ = runNow(append(tc.args, addr)...)
				if mc := master.wait(); mc != 0 {
					t.Errorf("master exited %d:\n%s", mc, master.out)
				}
			default:
				code, out, _ = runNow(tc.args...)
			}
			if code != 0 || !strings.Contains(out, tc.want) {
				t.Errorf("now %s: exit %d, want 0 and output naming %q:\n%s", strings.Join(tc.args, " "), code, tc.want, out)
			}
		})
	}
	for _, f := range []string{"render/frame0001.png", "diff/fig2b-predicted.tga", "fleetd.json", "worker.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
	if code, out, _ := runNow("trace", filepath.Join(dir, "render.json")); code != 0 || !strings.Contains(out, "critical") {
		t.Errorf("now trace on render's timeline: exit %d\n%s", code, out)
	}
}

// TestUsage pins the exit status of the command line's mistakes and of
// the top level's own flags.
func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // on stdout or stderr
	}{
		{[]string{"-version"}, 0, "now "},
		{[]string{"-h"}, 0, "tables"},
		{nil, 2, "verbs:"},
		{[]string{"frobnicate"}, 2, `unknown verb "frobnicate"`},
		{[]string{"render", "-nope"}, 2, "flag provided but not defined"},
		{[]string{"render", "-size", "240"}, 2, "want WxH"},
		{[]string{"diff", "-size", "0x320"}, 2, "want WxH"},
		{[]string{"render", "-scene", "newton:2", "stray", "-size", "16x12"}, 2, `unexpected argument "stray"`},
		{[]string{"render", "-shards", "1"}, 2, "want 0 (replicated) or 2..64"},
		{[]string{"render", "-scene", "newton:2", "-size", "16x12", "-mode", "nope"}, 2, `unknown -mode "nope"`},
		{[]string{"render", "-scene", "nosuch.sdl"}, 1, "nosuch.sdl"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-lease-term", "1s"}, 2, "-lease-term needs -fleet-broker"},
		{[]string{"serve", "-listen", "127.0.0.1:0", "-tenants", "alice,alice"}, 2, `"alice" repeated in -tenants`},
		{[]string{"fleetd", "-listen", "127.0.0.1:0", "-members", "ws01=4,ws01=2"}, 2, `"ws01" repeated in -members`},
		{[]string{"fleetd", "-listen", "127.0.0.1:0"}, 2, "no capacity"},
		{[]string{"fleetd", "-listen", "127.0.0.1:0", "-capacity", "2", "-members", "pool=1"}, 2, `member "pool" already registered`},
		{[]string{"worker", "-chaos", "drop=2"}, 2, "drop"},
		{[]string{"trace", "a.json", "b.json"}, 2, "at most one trace file"},
		{[]string{"diff", "-scene", "newton:2", "-frame", "1"}, 2, "want a frame with a successor"},
	} {
		code, stdout, stderr := runNow(c.args...)
		if code != c.code || !strings.Contains(stdout+stderr, c.want) {
			t.Errorf("now %s: exit %d, want %d and %q:\n%s%s", strings.Join(c.args, " "), code, c.code, c.want, stdout, stderr)
		}
	}
}

// TestFlagNamesHaveOneMeaning builds every verb's FlagSet without
// running it: a flag name that two verbs take must carry one usage text
// and one value type on both. It also pins each verb's flag count and the
// field counts of the configurations behind them, so that a new knob
// changes a number a reviewer sees: ROADMAP item 13 keeps only knobs a
// test drives or a measurement justifies.
func TestFlagNamesHaveOneMeaning(t *testing.T) {
	first := map[string]string{} // flag name -> the verb that declared it first
	seen := map[string]*flag.Flag{}
	knobs := map[string]int{}
	for _, v := range verbs {
		fs := flag.NewFlagSet(v.name, flag.ContinueOnError)
		v.declare(fs)
		knobs["now "+v.name] = 0
		fs.VisitAll(func(f *flag.Flag) {
			knobs["now "+v.name]++
			prev, ok := seen[f.Name]
			if !ok {
				first[f.Name], seen[f.Name] = v.name, f
				return
			}
			if prev.Usage != f.Usage || reflect.TypeOf(prev.Value) != reflect.TypeOf(f.Value) {
				t.Errorf("-%s means one thing on %s (%q) and another on %s (%q)", f.Name, first[f.Name], prev.Usage, v.name, f.Usage)
			}
		})
	}
	for _, c := range []any{farm.Config{}, farm.WorkerOptions{}, farm.DFBConfig{}, service.Config{}, fleetd.BrokerConfig{}} {
		typ := reflect.TypeOf(c)
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				knobs[typ.String()]++
			}
		}
	}
	want := map[string]int{"now render": 21, "now serve": 23, "now worker": 7, "now tables": 7, "now fleetd": 5, "now diff": 6,
		"now trace": 0, "farm.Config": 22, "farm.WorkerOptions": 3, "farm.DFBConfig": 1, "service.Config": 19, "fleetd.BrokerConfig": 5}
	if !maps.Equal(knobs, want) {
		t.Errorf("knobs %v, want %v; a knob added or removed updates these counts and ROADMAP item 13's", knobs, want)
	}
	t.Logf("%d verbs declare flags under %d names", len(verbs), len(seen))
}

// docCommand is one `now <word> ...` command line a document shows; the
// word should be a verb or a top-level flag.
type docCommand struct {
	verb string
	args []string
}

var nowRE = regexp.MustCompile(`(?:^|[\s/])(cmd/)?now\s+(-?[a-z][a-z0-9-]*)\b(.*)`)

// docCommands extracts the `now <word>` command lines of a markdown
// document: from each line of its fenced code blocks, and from its inline
// code spans. A backslash-continued line counts as one; shell syntax (a
// comment, pipe, redirection or &) ends the command.
func docCommands(src string) []docCommand {
	var spans, prose []string
	fenced := false
	for _, line := range strings.Split(strings.ReplaceAll(src, "\\\n", " "), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			spans = append(spans, line)
		default:
			prose = append(prose, line)
		}
	}
	inline := strings.Split(strings.Join(prose, "\n"), "`")
	for i := 1; i < len(inline); i += 2 {
		spans = append(spans, strings.ReplaceAll(inline[i], "\n", " "))
	}
	var out []docCommand
	for _, s := range spans {
		m := nowRE.FindStringSubmatch(s)
		if m == nil || m[1] != "" && strings.HasPrefix(m[2], "-") {
			continue // a flag after the package path is go's own
		}
		c := docCommand{verb: m[2]}
		for _, tok := range strings.Fields(m[3]) {
			if strings.ContainsAny(tok[:1], "#|&;<>") || strings.HasPrefix(tok, "2>") {
				break
			}
			c.args = append(c.args, tok)
		}
		out = append(out, c)
	}
	return out
}

// TestDocsNameRealFlags parses every `now <word>` command line of the
// documents — a verb's with its FlagSet, without running it, a top-level
// flag with the top level — so they cannot name a verb or a flag that
// does not exist.
func TestDocsNameRealFlags(t *testing.T) {
	docs := []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cmds := docCommands(string(src))
		if len(cmds) == 0 {
			t.Errorf("%s shows no now command", doc)
		}
		for _, c := range cmds {
			var err error
			switch i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == c.verb }); {
			case i >= 0:
				_, _, err = verbs[i].parse(c.args, io.Discard)
			case strings.HasPrefix(c.verb, "-"):
				if code := run(context.Background(), []string{c.verb}, io.Discard, io.Discard); code != 0 {
					err = fmt.Errorf("exit %d", code)
				}
			default:
				err = errors.New("no such verb")
			}
			// Prose may name a flag without its value.
			if err != nil && !errors.Is(err, flag.ErrHelp) && !strings.HasPrefix(err.Error(), "flag needs an argument") {
				t.Errorf("%s: now %s %s: %v", doc, c.verb, strings.Join(c.args, " "), err)
			}
		}
		t.Logf("%s: %d now command lines parse", doc, len(cmds))
	}
}

func TestDocCommands(t *testing.T) {
	src := "Run `now render -mode local` or `nowhere now`, or `now diff\n-size 8x8`, `now compose`, `now -h`.\n\n```sh\n" +
		"go run ./cmd/now serve -listen :8080 \\\n  -max-jobs 2 # comment\n" +
		"/tmp/vf/now trace run.json > report.txt\ngo test ./cmd/now -run Docs\n```\n"
	want := []docCommand{
		{"serve", []string{"-listen", ":8080", "-max-jobs", "2"}},
		{"trace", []string{"run.json"}},
		{"render", []string{"-mode", "local"}},
		{"diff", []string{"-size", "8x8"}},
		{"compose", nil},
		{"-h", nil},
	}
	if got := docCommands(src); !reflect.DeepEqual(got, want) {
		t.Errorf("docCommands = %v, want %v", got, want)
	}
}
