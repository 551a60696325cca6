//go:build !race

// Allocation pins that rest on pooled storage: under the race detector
// sync.Pool drops a share of what it is given, so they do not hold there.

package wire_test

import (
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/msg"
	"nowrender/internal/wire"
)

// TestResultRoundTripAllocatesNothing: a frame result encoded, sent over
// an in-process pipe, decoded and merged, its bytes then handed back to
// the pool the way the master does, allocates nothing once warm — raw
// and span-coded key-frames alike. (A delta's decoded span table is
// its one allocation.)
func TestResultRoundTripAllocatesNothing(t *testing.T) {
	region := fb.NewRect(0, 0, 40, 30)
	buf := patternFB(40, 30, 3)
	spans := []fb.Span{{Y: 2, X0: 3, X1: 30}, {Y: 9, X0: 0, X1: 40}}
	a, b := msg.Pipe(1)
	defer a.Close()
	asm := wire.NewAssemblyRange(40, 30, 0, 2)
	if _, _, err := asm.Deliver(0, region, buf.Pix, 0); err != nil { // the deltas' base
		t.Fatal(err)
	}
	var enc wire.Encoder
	for _, tc := range []struct {
		name  string
		flags int
		first bool
	}{
		{"raw key-frame", 0, true},
		{"span-coded key-frame", wire.CapSpanCodec, true},
	} {
		trip := func() {
			fd := wire.FrameDone{TaskID: 1, Frame: 1, Region: region}
			if err := a.Send(msg.Message{Tag: 1, Data: enc.Encode(&fd, buf, tc.flags, spans, tc.first)}); err != nil {
				t.Fatal(err)
			}
			m, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.DecodeFrameDone(m.Data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind == wire.KindDelta {
				_, _, err = asm.DeliverSpans(got.Frame, got.Region, got.Spans, got.Pix, 0)
			} else {
				_, _, err = asm.Deliver(got.Frame, got.Region, got.Pix, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			got.Release()
			msg.PutBytes(m.Data)
		}
		trip()
		if _, got := heappin.PerCall(t, 50, trip); got != 0 {
			t.Errorf("%s: %v allocs a round trip, want 0", tc.name, got)
		}
	}
}
