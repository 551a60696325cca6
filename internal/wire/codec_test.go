package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	vm "nowrender/internal/vecmath"
	"nowrender/internal/wire"
)

// patternFB fills a framebuffer with a deterministic pseudorandom
// pattern so payload comparisons are meaningful (an all-black buffer
// would let off-by-one span bugs slip through).
func patternFB(w, h int, seed int64) *fb.Framebuffer {
	img := fb.New(w, h)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(img.Pix)
	return img
}

// TestFrameDoneRoundTrip is the property test for the frame codec:
// every span shape that matters — empty delta, single pixel, full
// region, many random runs — crossed with raw and span-codec encodings
// must decode to the bytes that went in.
func TestFrameDoneRoundTrip(t *testing.T) {
	const w, h = 24, 16
	region := fb.NewRect(2, 1, 22, 15)
	src := patternFB(w, h, 42)
	rng := rand.New(rand.NewSource(99))
	randomSpans := func() []fb.Span {
		var out []fb.Span
		for y := region.Y0; y < region.Y1; y++ {
			x := region.X0
			for x < region.X1 && rng.Intn(3) > 0 {
				x0 := x + rng.Intn(region.X1-x)
				x1 := x0 + 1 + rng.Intn(region.X1-x0)
				out = append(out, fb.Span{Y: y, X0: x0, X1: x1})
				x = x1 + 1
			}
		}
		return out
	}
	fullRegion := []fb.Span{}
	for y := region.Y0; y < region.Y1; y++ {
		fullRegion = append(fullRegion, fb.Span{Y: y, X0: region.X0, X1: region.X1})
	}

	cases := []struct {
		name  string
		kind  int
		spans []fb.Span
	}{
		{"full", wire.KindFull, nil},
		{"delta-empty", wire.KindDelta, []fb.Span{}},
		{"delta-one-pixel", wire.KindDelta, []fb.Span{{Y: 3, X0: 7, X1: 8}}},
		{"delta-full-region", wire.KindDelta, fullRegion},
		{"delta-random", wire.KindDelta, randomSpans()},
	}
	for _, tc := range cases {
		for _, enc := range []int{wire.EncRaw, wire.EncSpan} {
			name := fmt.Sprintf("%s/enc=%d", tc.name, enc)
			var pix []byte
			if tc.kind == wire.KindDelta {
				pix = src.AppendSpans(nil, tc.spans)
			} else {
				pix = wire.ExtractRegion(src, region)
			}
			m := wire.FrameDone{
				TaskID: 9, Frame: 4, Region: region,
				Kind: tc.kind, Spans: tc.spans,
				Rendered: 11, Copied: 5, Regs: 3,
				Rays:      stats.RayCounters{},
				ElapsedNs: 777,
			}
			if enc == wire.EncSpan {
				in := pix
				if stride := wire.FilterStride(region); tc.kind == wire.KindFull && stride > 0 {
					in = make([]byte, len(pix))
					msg.SpanFilterUp(in, pix, stride)
				}
				m.Encoding, m.Pix = wire.EncSpan, msg.SpanCompress(nil, in)
			} else {
				m.Encoding, m.Pix = wire.EncRaw, pix
			}
			got, err := wire.DecodeFrameDone(wire.EncodeFrameDone(m))
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got.Kind != tc.kind || got.Encoding != enc {
				t.Errorf("%s: kind/enc %d/%d, want %d/%d", name, got.Kind, got.Encoding, tc.kind, enc)
			}
			if !bytes.Equal(got.Pix, pix) {
				t.Errorf("%s: pixel payload mismatch", name)
			}
			if len(got.Spans) != len(tc.spans) {
				t.Fatalf("%s: %d spans, want %d", name, len(got.Spans), len(tc.spans))
			}
			for i := range tc.spans {
				if got.Spans[i] != tc.spans[i] {
					t.Errorf("%s: span %d = %v, want %v", name, i, got.Spans[i], tc.spans[i])
				}
			}
			if got.TaskID != 9 || got.Frame != 4 || got.Rendered != 11 || got.ElapsedNs != 777 {
				t.Errorf("%s: stats fields corrupted: %+v", name, got)
			}
			got.Release()
		}
	}
}

// TestFrameEncoderDecision pins the encoder's choice logic: key-frames
// stay full, small deltas win, big deltas fall back to a full frame, and
// the span codec's output is kept only when it actually shrinks the
// payload.
func TestFrameEncoderDecision(t *testing.T) {
	const w, h = 32, 32
	region := fb.NewRect(0, 0, w, h)
	src := patternFB(w, h, 7)
	var enc wire.Encoder

	small := []fb.Span{{Y: 4, X0: 2, X1: 10}}
	var big []fb.Span
	for y := 0; y < h; y++ {
		big = append(big, fb.Span{Y: y, X0: 0, X1: w - 1})
	}

	cases := []struct {
		name     string
		flags    int
		spans    []fb.Span
		first    bool
		wantKind int
	}{
		{"first-frame-always-full", wire.CapDelta, small, true, wire.KindFull},
		{"no-flags-full", 0, small, false, wire.KindFull},
		{"plain-path-full", wire.CapDelta, nil, false, wire.KindFull},
		{"small-delta", wire.CapDelta, small, false, wire.KindDelta},
		{"size-guard-fallback", wire.CapDelta, big, false, wire.KindFull},
	}
	for _, tc := range cases {
		fd := wire.FrameDone{TaskID: 1, Frame: 3, Region: region}
		data := enc.Encode(&fd, src, tc.flags, tc.spans, tc.first)
		got, err := wire.DecodeFrameDone(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Kind != tc.wantKind {
			t.Errorf("%s: kind %d, want %d", tc.name, got.Kind, tc.wantKind)
		}
		got.Release()
	}

	// Incompressible random pixels: the codec's output is larger, so the
	// encoder must keep the raw payload.
	fd := wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	got, err := wire.DecodeFrameDone(enc.Encode(&fd, src, wire.CapSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != wire.EncRaw {
		t.Errorf("incompressible payload was shipped as encoding %d", got.Encoding)
	}
	got.Release()

	// Compressible pixels (constant colour) must use the codec when asked
	// to, and stay raw when not.
	flat := fb.New(w, h)
	fd = wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	got, err = wire.DecodeFrameDone(enc.Encode(&fd, flat, wire.CapSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != wire.EncSpan {
		t.Errorf("compressible payload stayed raw")
	}
	if !bytes.Equal(got.Pix, wire.ExtractRegion(flat, region)) {
		t.Error("span-codec round-trip corrupted pixels")
	}
	got.Release()
	fd = wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	got, err = wire.DecodeFrameDone(enc.Encode(&fd, flat, wire.CapDelta, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != wire.EncRaw {
		t.Errorf("payload was compressed without the span-codec flag")
	}
	got.Release()
}

func TestValidateSpansRejects(t *testing.T) {
	region := fb.NewRect(2, 2, 10, 10)
	bad := [][]fb.Span{
		{{Y: 1, X0: 2, X1: 4}},                       // row above region
		{{Y: 10, X0: 2, X1: 4}},                      // row below region
		{{Y: 3, X0: 1, X1: 4}},                       // left of region
		{{Y: 3, X0: 8, X1: 11}},                      // right of region
		{{Y: 3, X0: 5, X1: 5}},                       // empty span
		{{Y: 3, X0: 6, X1: 8}, {Y: 3, X0: 2, X1: 4}}, // out of order in row
		{{Y: 5, X0: 2, X1: 4}, {Y: 3, X0: 2, X1: 4}}, // rows descending
		{{Y: 3, X0: 2, X1: 6}, {Y: 3, X0: 5, X1: 8}}, // overlap
	}
	for i, spans := range bad {
		if err := wire.ValidateSpans(spans, region); err == nil {
			t.Errorf("case %d: spans %v accepted", i, spans)
		}
	}
	good := []fb.Span{{Y: 3, X0: 2, X1: 4}, {Y: 3, X0: 4, X1: 6}, {Y: 4, X0: 9, X1: 10}}
	if err := wire.ValidateSpans(good, region); err != nil {
		t.Errorf("valid spans rejected: %v", err)
	}
}

// TestDeliverSpans exercises the master-side delta merge directly:
// apply-on-base correctness, the base-missing discard, duplicate
// detection, and payload length checking.
func TestDeliverSpans(t *testing.T) {
	const w, h = 12, 8
	region := fb.NewRect(0, 0, w, h)
	base := patternFB(w, h, 1)
	next := patternFB(w, h, 2)
	spans := []fb.Span{{Y: 1, X0: 2, X1: 7}, {Y: 5, X0: 0, X1: 12}}
	pix := next.AppendSpans(nil, spans)

	asm := wire.NewAssemblyRange(w, h, 0, 3)
	if _, _, err := asm.Deliver(0, region, wire.ExtractRegion(base, region), 0); err != nil {
		t.Fatal(err)
	}
	complete, dup, err := asm.DeliverSpans(1, region, spans, pix, time.Millisecond)
	if err != nil || dup || !complete {
		t.Fatalf("deliverSpans: complete=%v dup=%v err=%v", complete, dup, err)
	}
	want := fb.New(w, h)
	want.CopyRect(base, region)
	if err := want.ApplySpans(spans, pix); err != nil {
		t.Fatal(err)
	}
	if !asm.Frame(1).Equal(want) {
		t.Error("delta-applied frame differs from CopyRect+ApplySpans reference")
	}

	// Duplicate: second delivery of the same (frame, region) is dropped.
	if _, dup, err := asm.DeliverSpans(1, region, spans, pix, 0); err != nil || !dup {
		t.Errorf("duplicate delta: dup=%v err=%v", dup, err)
	}

	// Base missing: frame 2's predecessor region never landed... frame 1
	// did, so frame 2 works; frame 0 has no predecessor at all.
	asm2 := wire.NewAssemblyRange(w, h, 0, 3)
	if _, _, err := asm2.DeliverSpans(0, region, spans, pix, 0); !errors.Is(err, wire.ErrDeltaBase) {
		t.Errorf("delta for frame 0 gave %v, want wire.ErrDeltaBase", err)
	}
	if _, _, err := asm2.DeliverSpans(2, region, spans, pix, 0); !errors.Is(err, wire.ErrDeltaBase) {
		t.Errorf("delta without base gave %v, want wire.ErrDeltaBase", err)
	}

	// Wrong payload length is a protocol violation, not a base miss.
	if _, _, err := asm.DeliverSpans(2, region, spans, pix[:len(pix)-3], 0); err == nil || errors.Is(err, wire.ErrDeltaBase) {
		t.Errorf("short payload gave %v", err)
	}
}

// FuzzDeltaDecode aims the fuzzer at the delta decoder specifically:
// seeds cover every kind/encoding combination, and the property is the
// usual one — arbitrary bytes never panic, and anything that decodes
// passed every structural validation.
func FuzzDeltaDecode(f *testing.F) {
	src := patternFB(16, 16, 5)
	region := fb.NewRect(0, 0, 16, 16)
	spans := []fb.Span{{Y: 2, X0: 1, X1: 6}, {Y: 9, X0: 0, X1: 16}}
	var enc wire.Encoder

	fd := wire.FrameDone{TaskID: 1, Frame: 1, Region: region}
	f.Add(enc.Encode(&fd, src, wire.CapDelta, spans, false))
	fd = wire.FrameDone{TaskID: 1, Frame: 1, Region: region}
	f.Add(enc.Encode(&fd, src, wire.CapDelta|wire.CapSpanCodec, spans, false))
	fd = wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	f.Add(enc.Encode(&fd, src, wire.CapSpanCodec, nil, true))
	fd = wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	full := enc.Encode(&fd, src, 0, nil, true)
	f.Add(full)
	f.Add(full[:len(full)-7])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.DecodeFrameDone(data)
		if err != nil {
			return
		}
		defer m.Release()
		if m.Kind == wire.KindDelta {
			if err := wire.ValidateSpans(m.Spans, m.Region); err != nil {
				t.Fatalf("decode accepted invalid spans: %v", err)
			}
			if len(m.Pix) != fb.SpanArea(m.Spans)*3 {
				t.Fatalf("delta payload %d bytes for %d span pixels", len(m.Pix), fb.SpanArea(m.Spans))
			}
		} else if len(m.Pix) != m.Region.Area()*3 {
			t.Fatalf("full payload %d bytes for region %v", len(m.Pix), m.Region)
		}
		// The decoded message must be applicable: a framebuffer the size
		// of the region absorbs it without error.
		img := fb.New(m.Region.X1, m.Region.Y1)
		if m.Kind == wire.KindDelta {
			if err := img.ApplySpans(m.Spans, m.Pix); err != nil {
				t.Fatalf("validated delta failed to apply: %v", err)
			}
		}
	})
}

// TestFrameEncoderSpanCodec exercises the span-codec payload path in the
// production encoder on both frame kinds: a key-frame (which ships the
// vertically filtered residual) and a dirty-span delta, each decoded back
// to byte-identical pixels by the production decoder.
func TestFrameEncoderSpanCodec(t *testing.T) {
	const w, h = 48, 40
	region := fb.NewRect(0, 0, w, h)
	// Vertically coherent gradient: compressible by the span codec, and
	// exactly the content the key-frame filter is for.
	src := fb.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w*3; x++ {
			src.Pix[y*w*3+x] = byte(x + y*2)
		}
	}
	var enc wire.Encoder

	fd := wire.FrameDone{TaskID: 1, Frame: 0, Region: region}
	got, err := wire.DecodeFrameDone(enc.Encode(&fd, src, wire.CapDelta|wire.CapSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.KindFull {
		t.Fatalf("key frame kind %d, want full", got.Kind)
	}
	if got.Encoding != wire.EncSpan {
		t.Fatalf("key frame encoding %d, want span", got.Encoding)
	}
	if !bytes.Equal(got.Pix, src.Pix) {
		t.Fatal("span key frame did not restore byte-identical pixels")
	}
	got.Release()

	// Delta frame: a band of full-width dirty rows, span-coded, applied
	// over the previous frame.
	var spans []fb.Span
	for y := 8; y < 24; y++ {
		spans = append(spans, fb.Span{Y: y, X0: 0, X1: w - 1})
	}
	fd = wire.FrameDone{TaskID: 1, Frame: 1, Region: region}
	got, err = wire.DecodeFrameDone(enc.Encode(&fd, src, wire.CapDelta|wire.CapSpanCodec, spans, false))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.KindDelta {
		t.Fatalf("delta frame kind %d, want delta", got.Kind)
	}
	if got.Encoding != wire.EncSpan {
		t.Fatalf("delta frame encoding %d, want span", got.Encoding)
	}
	cur := fb.New(w, h)
	copy(cur.Pix, src.Pix)
	if err := cur.ApplySpans(got.Spans, got.Pix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur.Pix, src.Pix) {
		t.Fatal("span delta did not restore byte-identical pixels")
	}
	got.Release()
}

// TestFrameDoneTimelineRoundTrip: a frame-done message carrying a
// timeline section survives encode/decode with every field intact,
// including an instant event (Dur = -1).
func TestFrameDoneTimelineRoundTrip(t *testing.T) {
	region := fb.NewRect(0, 0, 4, 4)
	in := wire.FrameDone{
		TaskID: 3, Frame: 7, Region: region,
		Kind: wire.KindFull, Encoding: wire.EncRaw,
		Pix:      bytes.Repeat([]byte{1, 2, 3}, region.Area()),
		Rendered: 16, ElapsedNs: 12345,
		TLNow:    999_000,
		TLTracks: []string{"w0/main", "w0/tile00"},
		TLEvents: []wire.TLEvent{
			{Track: 0, Ev: timeline.Event{Start: 100, Dur: 50, Op: timeline.OpFrame, Frame: 7, Arg: 16}},
			{Track: 1, Ev: timeline.Event{Start: 110, Dur: 20, Op: timeline.OpTile, Frame: 7, Arg: 4}},
			{Track: 0, Ev: timeline.Event{Start: 160, Dur: -1, Op: timeline.OpBaseMiss, Frame: 7}},
		},
	}
	out, err := wire.DecodeFrameDone(wire.EncodeFrameDone(in))
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
// TestGalleryBytesPinned pins the resulting byte totals.
func TestFrameDoneRawKeyFrameLayout(t *testing.T) {
	region := fb.NewRect(2, 1, 6, 5)
	m := wire.FrameDone{
		TaskID: 1, Frame: 4, Region: region,
		Kind: wire.KindFull, Encoding: wire.EncRaw,
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

	if got, want := wire.EncodeFrameDone(m), want.Sealed(); !bytes.Equal(got, want) {
		t.Errorf("raw key-frame encoding diverged from the pinned layout:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestGalleryBytesPinned is the wire format's byte pin. Sixteen gallery
// frames at the paper's 240x320 go through one coherence engine, and
// each frame's pixels and traced spans through a fresh encoder per mode.
// The encoder reads no clock, so the summed result bytes are a function
// of the scene, the engine's dirty set and the message layout: a header
// byte more or a span less moves them, and then the change either meant
// to (re-pin, with the reason) or is a regression. Every mode must also
// decode back to the rendered frames byte for byte. The span codec's
// pooled match table does not reach the bytes: it reads every entry an
// earlier payload wrote as a fresh table's zero (msg.TestSpanCompressIsPure).
func TestGalleryBytesPinned(t *testing.T) {
	const w, h, frames = 240, 320, 16
	region := fb.NewRect(0, 0, w, h)
	eng, err := coherence.NewEngine(scenes.Gallery(0), w, h, region, 0, frames, coherence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := make([]*fb.Framebuffer, frames)
	spans := make([][]fb.Span, frames)
	buf := fb.New(w, h)
	for f := range rendered {
		if _, err := eng.RenderFrame(f, buf); err != nil {
			t.Fatal(err)
		}
		rendered[f] = buf.Clone()
		spans[f] = append([]fb.Span(nil), eng.LastSpans()...)
	}

	for _, mode := range []struct {
		name         string
		flags        int
		bytes        int
		deltas, span int
	}{
		{"full", 0, 3688384, 0, 0},
		// Re-pinned from 370948 and 190612 when shadow segments that a
		// static opaque object blocks stopped registering: the gallery's
		// bouncer no longer dirties pixels in the pedestals' shadows, so
		// fewer spans travel. The pixels are the same.
		{"delta", wire.CapDelta, 370219, 15, 0},
		{"delta+span", wire.CapDelta | wire.CapSpanCodec, 190184, 15, 16},
	} {
		var enc wire.Encoder
		cur := fb.New(w, h)
		total, deltas, span := 0, 0, 0
		for f := 0; f < frames; f++ {
			fd := wire.FrameDone{TaskID: 1, Frame: f, Region: region}
			data := enc.Encode(&fd, rendered[f], mode.flags, spans[f], f == 0)
			total += len(data)
			got, err := wire.DecodeFrameDone(data)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", mode.name, f, err)
			}
			if got.Kind == wire.KindDelta {
				deltas++
				if err := cur.ApplySpans(got.Spans, got.Pix); err != nil {
					t.Fatalf("%s: frame %d: %v", mode.name, f, err)
				}
			} else {
				copy(cur.Pix, got.Pix)
			}
			if got.Encoding == wire.EncSpan {
				span++
			}
			got.Release()
			if !cur.Equal(rendered[f]) {
				t.Errorf("%s: frame %d reconstructed from the wire differs from the render", mode.name, f)
			}
		}
		if total != mode.bytes || deltas != mode.deltas || span != mode.span {
			t.Errorf("%s: %d bytes, %d delta and %d span-coded results; pinned %d, %d, %d",
				mode.name, total, deltas, span, mode.bytes, mode.deltas, mode.span)
		}
	}
}
