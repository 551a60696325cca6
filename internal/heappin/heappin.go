// Package heappin measures what code allocates, for the tests that pin
// it. runtime.MemStats and testing.AllocsPerRun read the whole process,
// so a goroutine left running by an earlier test, or a collection that
// empties a sync.Pool, lands in a test's window. PerCall and Live
// collect first, refuse to measure while a goroutine of another test is
// alive, and PerCall keeps the least of several windows: interference
// only ever adds, so the minimum is the honest reading.
package heappin

import (
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// windows is how many windows PerCall measures.
const windows = 5

// PerCall returns the bytes and the allocations one call of f makes:
// f is called once to warm up, then the least over several windows of
// runs calls each, per call (truncated, as testing.AllocsPerRun does).
func PerCall(t testing.TB, runs int, f func()) (bytes, allocs uint64) {
	t.Helper()
	f()
	runtime.GC()
	quiet(t)
	bytes, allocs = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for range windows {
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	quiet(t)
	return bytes, allocs
}

// Live returns the bytes the heap holds after a collection.
func Live(t testing.TB) uint64 {
	t.Helper()
	quiet(t)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// quiet fails t if a goroutine of another test is alive, after giving
// an earlier test's goroutines a second to exit. A goroutine is the
// calling test's when the chain of live goroutines that created it
// leads back to the caller; the testing package's and the runtime's own
// are nobody's.
func quiet(t testing.TB) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		foreign := others()
		if len(foreign) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("heappin: %d goroutines of another test are alive:\n\n%s", len(foreign), strings.Join(foreign, "\n\n"))
			return
		}
	}
}

var (
	header  = regexp.MustCompile(`^goroutine (\d+) `)
	creator = regexp.MustCompile(`\ncreated by .* in goroutine (\d+)\n`)
)

// others returns the stacks of the goroutines that are neither the
// caller's, nor started by it, nor the testing package's or runtime's.
func others() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	stacks := strings.Split(string(buf[:n]), "\n\n")
	id := func(s string, re *regexp.Regexp) int {
		m := re.FindStringSubmatch(s)
		if m == nil {
			return 0
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	self := id(stacks[0], header) // runtime.Stack lists the caller first
	parent := make(map[int]int, len(stacks))
	for _, s := range stacks {
		parent[id(s, header)] = id(s+"\n", creator)
	}
	var foreign []string
	for _, s := range stacks[1:] {
		lines := strings.SplitN(s, "\n", 3)
		if len(lines) < 2 || strings.HasPrefix(lines[1], "testing.") || strings.HasPrefix(lines[1], "runtime.") ||
			strings.HasPrefix(lines[1], "os/signal.") {
			continue
		}
		g := parent[id(s, header)]
		for hops := 0; g != 0 && g != self && hops < len(stacks); hops++ {
			g = parent[g]
		}
		if g != self {
			foreign = append(foreign, s)
		}
	}
	return foreign
}
