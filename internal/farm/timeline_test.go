package farm

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/timeline"
	vm "nowrender/internal/vecmath"
)

// TestFrameDoneTimelineRoundTrip: a frame-done message carrying a
// timeline section survives encode/decode with every field intact,
// including an instant event (Dur = -1).
func TestFrameDoneTimelineRoundTrip(t *testing.T) {
	region := fb.NewRect(0, 0, 4, 4)
	in := frameDoneMsg{
		TaskID: 3, Frame: 7, Region: region,
		Kind: frameFull, Encoding: encRaw,
		Pix:      bytes.Repeat([]byte{1, 2, 3}, region.Area()),
		Rendered: 16, ElapsedNs: 12345,
		TLNow:    999_000,
		TLTracks: []string{"w0/main", "w0/tile00"},
		TLEvents: []wireEvent{
			{Track: 0, Ev: timeline.Event{Start: 100, Dur: 50, Op: timeline.OpFrame, Frame: 7, Arg: 16}},
			{Track: 1, Ev: timeline.Event{Start: 110, Dur: 20, Op: timeline.OpTile, Frame: 7, Arg: 4}},
			{Track: 0, Ev: timeline.Event{Start: 160, Dur: -1, Op: timeline.OpBaseMiss, Frame: 7}},
		},
	}
	out, err := decodeFrameDone(encodeFrameDone(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.TLNow != in.TLNow {
		t.Errorf("TLNow = %d, want %d", out.TLNow, in.TLNow)
	}
	if len(out.TLTracks) != len(in.TLTracks) {
		t.Fatalf("TLTracks = %v, want %v", out.TLTracks, in.TLTracks)
	}
	for i, name := range in.TLTracks {
		if out.TLTracks[i] != name {
			t.Errorf("track %d = %q, want %q", i, out.TLTracks[i], name)
		}
	}
	if len(out.TLEvents) != len(in.TLEvents) {
		t.Fatalf("got %d events, want %d", len(out.TLEvents), len(in.TLEvents))
	}
	for i, we := range in.TLEvents {
		if out.TLEvents[i] != we {
			t.Errorf("event %d = %+v, want %+v", i, out.TLEvents[i], we)
		}
	}
	if !bytes.Equal(out.Pix, in.Pix) {
		t.Error("pixels corrupted by the timeline section")
	}
}

// TestFrameDoneRawKeyFrameLayout: a raw key-frame with no timeline
// section encodes as the bare header, payload and counters — no
// kind/encoding/span section. The plain path ships nothing else, and
// BENCH_wire.json pins the resulting byte totals.
func TestFrameDoneRawKeyFrameLayout(t *testing.T) {
	region := fb.NewRect(2, 1, 6, 5)
	m := frameDoneMsg{
		TaskID: 1, Frame: 4, Region: region,
		Kind: frameFull, Encoding: encRaw,
		Pix:      bytes.Repeat([]byte{9}, region.Area()*3),
		Rendered: region.Area(), Copied: 0, Regs: 42, ElapsedNs: 777,
	}
	m.Rays.ByKind[0] = 12

	want := msg.GetBuffer()
	defer want.Release()
	want.PackInt(int64(m.TaskID))
	want.PackInt(int64(m.Frame))
	want.PackInt(int64(m.Region.X0))
	want.PackInt(int64(m.Region.Y0))
	want.PackInt(int64(m.Region.X1))
	want.PackInt(int64(m.Region.Y1))
	want.PackBytes(m.Pix)
	want.PackInt(int64(m.Rendered))
	want.PackInt(int64(m.Copied))
	want.PackInt(int64(m.Regs))
	for k := 0; k < vm.NumRayKinds; k++ {
		want.PackInt(int64(m.Rays.ByKind[k]))
	}
	want.PackInt(m.ElapsedNs)

	if got, want := encodeFrameDone(m), want.Sealed(); !bytes.Equal(got, want) {
		t.Errorf("raw key-frame encoding diverged from the pinned layout:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestPongRoundTrip: a pong is exactly three fields; the two-field pair
// a ping carries is not one.
func TestPongRoundTrip(t *testing.T) {
	seq, masterNs, workerNs, err := decodePong(encodePong(5, 111, 222))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 || masterNs != 111 || workerNs != 222 {
		t.Errorf("stamped pong = (%d, %d, %d), want (5, 111, 222)", seq, masterNs, workerNs)
	}
	if _, _, _, err := decodePong(encodePair(8, 333)); err == nil {
		t.Error("two-field pong decoded successfully")
	}
}

// TestPongData: a worker re-stamps ping payloads with its recorder
// clock, and answers a garbled ping with its own bytes.
func TestPongData(t *testing.T) {
	ping := encodePair(3, 1_000_000)

	wt := &workerTimeline{}
	wt.ensure(1)
	stamped := pongData(ping, wt)
	seq, masterNs, workerNs, err := decodePong(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || masterNs != 1_000_000 {
		t.Errorf("re-stamped pong = (%d, %d), want (3, 1000000)", seq, masterNs)
	}
	if workerNs <= 0 {
		t.Errorf("workerNs = %d, want a live recorder stamp", workerNs)
	}

	// Malformed pings are echoed, not dropped: the master only needs
	// the bytes back to count the pong as liveness.
	junk := []byte{0xde, 0xad}
	if got := pongData(junk, wt); !bytes.Equal(got, junk) {
		t.Error("malformed ping was not echoed verbatim")
	}
}

// TestRenderLocalTimeline drives a real local farm run with recording
// and heartbeats on and checks the merged cluster timeline: master
// events, shipped worker frame spans under the worker's own group, an
// offset entry per worker, and a lossless Chrome-trace round trip.
func TestRenderLocalTimeline(t *testing.T) {
	sc := farmScene(6)
	rec := timeline.New(0)
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 2,
		Scheme:    partition.FrameDivision{BlockW: 20, BlockH: 16, Adaptive: true},
		Heartbeat: 10 * time.Millisecond,
		Timeline:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("Result.Timeline is nil with a recorder configured")
	}

	groups := map[string]bool{}
	frameSpans := map[string]int{}
	for _, td := range tl.Tracks {
		groups[td.Group()] = true
		for _, ev := range td.Events {
			if ev.Op == timeline.OpFrame && ev.Dur >= 0 {
				frameSpans[td.Group()]++
			}
		}
	}
	if !groups["master"] {
		t.Errorf("no master group in timeline; groups = %v", groups)
	}
	workerGroups := 0
	for g := range frameSpans {
		if g != "master" {
			workerGroups++
		}
	}
	if workerGroups == 0 {
		t.Fatalf("no worker OpFrame spans shipped; groups = %v, frame spans = %v", groups, frameSpans)
	}
	offsets := 0
	for k := range tl.Meta {
		if strings.HasPrefix(k, "offset/") {
			offsets++
		}
	}
	if offsets == 0 {
		t.Errorf("no offset metadata recorded; meta = %v", tl.Meta)
	}

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := timeline.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Events(), tl.Events(); got != want {
		t.Errorf("Chrome round trip lost events: got %d, want %d", got, want)
	}
	if back.Meta["scheme"] != tl.Meta["scheme"] {
		t.Errorf("Chrome round trip lost meta: %q != %q", back.Meta["scheme"], tl.Meta["scheme"])
	}
}
