package heappin

import (
	"fmt"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what a failure says.
type recorder struct {
	testing.TB
	failed string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.failed = fmt.Sprintf(format, args...) }

var sink []byte

// TestPerCallReadsOneCall: a call that allocates one 4 kB slice reads
// one allocation of at least 4 kB, whatever the window.
func TestPerCallReadsOneCall(t *testing.T) {
	bytes, allocs := PerCall(t, 10, func() { sink = make([]byte, 4096) })
	if allocs != 1 || bytes < 4096 || bytes > 8192 {
		t.Errorf("%d B in %d allocations a call, want one of 4 kB", bytes, allocs)
	}
}

// TestOwnGoroutinesAreAllowed: a goroutine the test started, and one
// that goroutine started, are the test's own.
func TestOwnGoroutinesAreAllowed(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() {
		go func() { <-stop }()
		close(started)
		<-stop
	}()
	<-started
	r := &recorder{TB: t}
	PerCall(r, 1, func() {})
	if r.failed != "" {
		t.Error(r.failed)
	}
}

// TestAnotherTestsGoroutineFails: a goroutine left by an earlier test,
// whose creator is gone, fails the next measurement after the grace
// second, and the failure shows its stack.
func TestAnotherTestsGoroutineFails(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	t.Run("leaks", func(t *testing.T) {
		go leaked(stop)
	})
	r := &recorder{TB: t}
	Live(r)
	if !strings.Contains(r.failed, "1 goroutines of another test") || !strings.Contains(r.failed, "heappin.leaked") {
		t.Errorf("a leaked goroutine passed: %q", r.failed)
	}
}

func leaked(stop chan struct{}) { <-stop }
