//go:build !race

// Allocation pins that rest on pooled storage: under the race detector
// sync.Pool drops a share of what it is given, so they do not hold there.

package msg

import (
	"testing"

	"nowrender/internal/heappin"
)

// TestGetPutBytesAllocatesNothing: a slice taken and returned goes back
// to its size class in the holder it came out in, so a steady Get+Put
// allocates nothing — not even the pointer Put hands the pool.
func TestGetPutBytesAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 100, 4 << 10, 57600} {
		PutBytes(GetBytes(n))
		if _, got := heappin.PerCall(t, 100, func() { PutBytes(GetBytes(n)) }); got != 0 {
			t.Errorf("GetBytes(%d)+PutBytes: %v allocs, want 0", n, got)
		}
	}
}
