package farm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
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

// v1Hello is the hello a protocol-version-1 worker sent: its name, then
// its capability bits, sealed.
func v1Hello(name string, caps int) []byte {
	b := msg.NewBuffer()
	b.PackString(name)
	b.PackInt(int64(caps))
	return msg.Seal(b.Bytes())
}

// versionHello is a well-formed hello claiming an arbitrary version.
func versionHello(name string, version int) []byte {
	b := msg.NewBuffer()
	b.PackInt(int64(version))
	b.PackString(name)
	return msg.Seal(b.Bytes())
}

func TestHelloRoundTrip(t *testing.T) {
	name, err := decodeHello(encodeHello("ws01"))
	if err != nil || name != "ws01" {
		t.Errorf("hello round-tripped to (%q, %v)", name, err)
	}
	want := fmt.Sprintf("version %d", ProtocolVersion)
	for label, data := range map[string][]byte{
		"v1 hello, all caps":    v1Hello("ws01", 0x3f),
		"v1 hello, caps == 2":   v1Hello("ws01", 2),
		"v1 hello, 2-byte name": v1Hello("ws", 0x3f),
		"raw name bytes":        []byte("old-worker"),
		"empty":                 nil,
		"version 2":             versionHello("ws01", 2),
		"version 4":             versionHello("ws01", 4),
		"version 0":             versionHello("ws01", 0),
		"trailing field": func() []byte {
			b := msg.NewBuffer()
			b.PackInt(ProtocolVersion)
			b.PackString("ws01")
			b.PackInt(0)
			return msg.Seal(b.Bytes())
		}(),
	} {
		_, err := decodeHello(data)
		if err == nil {
			t.Errorf("%s: accepted", label)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", label, err, want)
		}
	}
	if _, err := decodeHello(versionHello("ws01", 2)); !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version-2 refusal %q does not name the worker's version", err)
	}
}

func TestTaskWireFlagsRoundTrip(t *testing.T) {
	base := taskMsg{
		Task: partition.Task{ID: 5, Region: fb.NewRect(0, 0, 16, 16), StartFrame: 2, EndFrame: 9},
		W:    16, H: 16, Coherence: true, Samples: 1, Threads: 2,
	}
	dfb := base
	dfb.JobStart, dfb.JobEnd = 0, 16
	dfb.Sinks = []string{"sink0", "127.0.0.1:7001"}
	sharded := base
	sharded.OSShards = 4
	everything := dfb
	everything.OSShards = 4
	everything.AAThreshold, everything.AASamples = 0.1, 8
	for _, tm := range []taskMsg{base, dfb, sharded, everything} {
		for _, flags := range []int{0, capWireDelta, capWireSpanCodec, wireFlagsMask} {
			tm.WireFlags = flags
			got, err := decodeTask(encodeTask(tm))
			if err != nil {
				t.Fatalf("flags %#x: %v", flags, err)
			}
			if !reflect.DeepEqual(got, tm) {
				t.Errorf("task round-tripped to %+v, want %+v", got, tm)
			}
		}
	}
	// A worker refuses flags it does not know — the retired bits (1<<1
	// flate, 1<<3 DFB, 1<<5 object space) as much as never-assigned ones.
	for _, bit := range []int{1 << 1, 1 << 3, 1 << 5, 1 << 9} {
		bad := base
		bad.WireFlags = capWireDelta | bit
		if _, err := decodeTask(encodeTask(bad)); err == nil {
			t.Errorf("unknown wire flag %#x decoded successfully", bit)
		}
	}
	// A job range that does not contain the task range is rejected.
	bad := dfb
	bad.JobStart = 4
	if _, err := decodeTask(encodeTask(bad)); err == nil {
		t.Error("DFB job range not containing task range decoded successfully")
	}
	// A shard count that is neither 0 nor in [2, MaxShards] is rejected.
	for _, n := range []int{1, -1, objspace.MaxShards + 1} {
		bad = base
		bad.OSShards = n
		if _, err := decodeTask(encodeTask(bad)); err == nil {
			t.Errorf("object-space shard count %d decoded successfully", n)
		}
	}
	// Antialiasing options outside the tracer's domain are rejected.
	for _, aa := range []struct {
		threshold float64
		samples   int
	}{{-0.1, 0}, {1.5, 0}, {math.NaN(), 0}, {math.Inf(1), 0}, {0.1, -1}, {0.1, maxAASamples + 1}} {
		bad = base
		bad.AAThreshold, bad.AASamples = aa.threshold, aa.samples
		if _, err := decodeTask(encodeTask(bad)); err == nil {
			t.Errorf("antialiasing (%v, %d) decoded successfully", aa.threshold, aa.samples)
		}
	}
	// The layout is fixed: a message cut short or with bytes to spare is
	// not a task, whatever its checksum says.
	body := encodeTask(everything)
	body = body[:len(body)-4]
	if _, err := decodeTask(msg.Seal(body[:len(body)-8])); err == nil {
		t.Error("task missing its last field decoded successfully")
	}
	if _, err := decodeTask(msg.Seal(append(body, 0))); err == nil {
		t.Error("task with a trailing byte decoded successfully")
	}
}

func TestFrameAckRoundTrip(t *testing.T) {
	a := frameAckMsg{
		TaskID: 7, Frame: 12, Region: fb.NewRect(0, 8, 16, 16),
		Kind: frameDelta, Sink: 1, SinkBytes: 4096,
		Rendered: 100, Copied: 156, Regs: 31, ElapsedNs: 99_000,
	}
	a.Rays.ByKind[0] = 1234
	got, err := decodeFrameAck(encodeFrameAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("ack round trip: %+v != %+v", got, a)
	}
	// With the timeline piggyback.
	a.TLNow = 5_000_000
	a.TLTracks = []string{"w/main", "w/tile0"}
	a.TLEvents = []wireEvent{{Track: 1, Ev: timeline.Event{Op: timeline.OpFrame, Frame: 12, Start: 10, Dur: 20}}}
	got, err = decodeFrameAck(encodeFrameAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Errorf("ack+timeline round trip: %+v != %+v", got, a)
	}
	if _, err := decodeFrameAck([]byte("garbage")); err == nil {
		t.Error("garbage ack decoded successfully")
	}
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
		{"full", frameFull, nil},
		{"delta-empty", frameDelta, []fb.Span{}},
		{"delta-one-pixel", frameDelta, []fb.Span{{Y: 3, X0: 7, X1: 8}}},
		{"delta-full-region", frameDelta, fullRegion},
		{"delta-random", frameDelta, randomSpans()},
	}
	for _, tc := range cases {
		for _, enc := range []int{encRaw, encSpan} {
			name := fmt.Sprintf("%s/enc=%d", tc.name, enc)
			var pix []byte
			if tc.kind == frameDelta {
				pix = src.AppendSpans(nil, tc.spans)
			} else {
				pix = extractRegion(src, region)
			}
			m := frameDoneMsg{
				TaskID: 9, Frame: 4, Region: region,
				Kind: tc.kind, Spans: tc.spans,
				Rendered: 11, Copied: 5, Regs: 3,
				Rays:      stats.RayCounters{},
				ElapsedNs: 777,
			}
			if enc == encSpan {
				in := pix
				if stride := wire.FilterStride(region); tc.kind == frameFull && stride > 0 {
					in = make([]byte, len(pix))
					msg.SpanFilterUp(in, pix, stride)
				}
				m.Encoding, m.Pix = encSpan, msg.SpanCompress(nil, in)
			} else {
				m.Encoding, m.Pix = encRaw, pix
			}
			got, err := decodeFrameDone(encodeFrameDone(m))
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
	var enc frameEncoder

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
		{"first-frame-always-full", capWireDelta, small, true, frameFull},
		{"no-flags-full", 0, small, false, frameFull},
		{"plain-path-full", capWireDelta, nil, false, frameFull},
		{"small-delta", capWireDelta, small, false, frameDelta},
		{"size-guard-fallback", capWireDelta, big, false, frameFull},
	}
	for _, tc := range cases {
		fd := frameDoneMsg{TaskID: 1, Frame: 3, Region: region}
		data := enc.Encode(&fd, src, tc.flags, tc.spans, tc.first)
		got, err := decodeFrameDone(data)
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
	fd := frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	got, err := decodeFrameDone(enc.Encode(&fd, src, capWireSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != encRaw {
		t.Errorf("incompressible payload was shipped as encoding %d", got.Encoding)
	}
	got.Release()

	// Compressible pixels (constant colour) must use the codec when asked
	// to, and stay raw when not.
	flat := fb.New(w, h)
	fd = frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	got, err = decodeFrameDone(enc.Encode(&fd, flat, capWireSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != encSpan {
		t.Errorf("compressible payload stayed raw")
	}
	if !bytes.Equal(got.Pix, extractRegion(flat, region)) {
		t.Error("span-codec round-trip corrupted pixels")
	}
	got.Release()
	fd = frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	got, err = decodeFrameDone(enc.Encode(&fd, flat, capWireDelta, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != encRaw {
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
		if err := validateSpans(spans, region); err == nil {
			t.Errorf("case %d: spans %v accepted", i, spans)
		}
	}
	good := []fb.Span{{Y: 3, X0: 2, X1: 4}, {Y: 3, X0: 4, X1: 6}, {Y: 4, X0: 9, X1: 10}}
	if err := validateSpans(good, region); err != nil {
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

	asm := newAssembly(w, h, 3)
	if _, _, err := asm.Deliver(0, region, extractRegion(base, region), 0); err != nil {
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
	asm2 := newAssembly(w, h, 3)
	if _, _, err := asm2.DeliverSpans(0, region, spans, pix, 0); !errors.Is(err, errDeltaBase) {
		t.Errorf("delta for frame 0 gave %v, want errDeltaBase", err)
	}
	if _, _, err := asm2.DeliverSpans(2, region, spans, pix, 0); !errors.Is(err, errDeltaBase) {
		t.Errorf("delta without base gave %v, want errDeltaBase", err)
	}

	// Wrong payload length is a protocol violation, not a base miss.
	if _, _, err := asm.DeliverSpans(2, region, spans, pix[:len(pix)-3], 0); err == nil || errors.Is(err, errDeltaBase) {
		t.Errorf("short payload gave %v", err)
	}
}

// TestWireGolden locks the data path's invariant: every (delta, span
// codec) combination produces byte-identical frames, matching the
// committed golden hashes, on both the local and virtual drivers — and
// the modes actually engage (delta and span-coded frames counted when
// asked for).
func TestWireGolden(t *testing.T) {
	sc := farmScene(goldenFrames)
	want := readGolden(t)
	scheme := partition.FrameDivision{BlockW: 16, BlockH: 16, Adaptive: true}

	for _, delta := range []bool{false, true} {
		for _, span := range []bool{false, true} {
			label := fmt.Sprintf("local/delta=%v,span=%v", delta, span)
			res, err := RenderLocal(Config{
				Scene: sc, W: fw, H: fh, Coherence: true, Workers: 3,
				Scheme: scheme, WireDelta: delta, WireSpanCodec: span,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, hsh := range hashFrames(res.Frames) {
				if hsh != want[i] {
					t.Errorf("%s: frame %d hash mismatch", label, i)
				}
			}
			if got := res.Wire.FramesDelta > 0; got != delta {
				t.Errorf("%s: %d delta frames were shipped", label, res.Wire.FramesDelta)
			}
			if got := res.Wire.FramesSpan > 0; got != span {
				t.Errorf("%s: %d span-coded frames were shipped", label, res.Wire.FramesSpan)
			}
			if res.Wire.WireBytes == 0 || res.Wire.RawBytes == 0 {
				t.Errorf("%s: wire counters empty: %s", label, res.Wire)
			}
		}
	}

	// Virtual driver with wire modes on: same pixels, and the modelled
	// traffic reflects the real codec.
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		Scheme: scheme, WireDelta: true, WireSpanCodec: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, hsh := range hashFrames(res.Frames) {
		if hsh != want[i] {
			t.Errorf("virtual wire: frame %d hash mismatch", i)
		}
	}
	if res.Wire.FramesDelta == 0 || res.Wire.FramesSpan == 0 {
		t.Errorf("virtual wire: modes not modelled: %s", res.Wire)
	}
}

// TestChaosSoakWire is the chaos soak with the wire data path fully on:
// drops, corruption and truncation against delta+span frames must
// still converge to byte-identical output, with retried tasks reseeded
// by their key-frames.
func TestChaosSoakWire(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	sc := farmScene(8)
	want := referenceFrames(t, sc)
	spec := "seed=23,drop=0.03,corrupt=0.02,truncate=0.02,delay=0.05:2ms,sever=0.005,protect=worker00"
	plan, err := faulty.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 4,
		Scheme:        partition.FrameDivision{BlockW: 20, BlockH: 16, Adaptive: true},
		Heartbeat:     20 * time.Millisecond,
		Liveness:      2 * time.Second,
		StallTimeout:  1500 * time.Millisecond,
		FrameRetries:  2,
		Speculate:     true,
		WrapConn:      plan.Wrap,
		WireDelta:     true,
		WireSpanCodec: true,
	})
	if err != nil {
		t.Fatalf("wire chaos run failed: %v", err)
	}
	assertFramesEqual(t, "wire-chaos", res.Frames, want)
	inj := plan.Snapshot()
	if inj.Dropped+inj.Corrupted+inj.Truncated+inj.Delayed+inj.Severed == 0 {
		t.Error("fault plan injected nothing; the soak was vacuous")
	}
	t.Logf("injected %+v; wire %s; faults %s", inj, res.Wire, res.Faults.String())
}

// FuzzDeltaDecode aims the fuzzer at the delta decoder specifically:
// seeds cover every kind/encoding combination, and the property is the
// usual one — arbitrary bytes never panic, and anything that decodes
// passed every structural validation.
func FuzzDeltaDecode(f *testing.F) {
	src := patternFB(16, 16, 5)
	region := fb.NewRect(0, 0, 16, 16)
	spans := []fb.Span{{Y: 2, X0: 1, X1: 6}, {Y: 9, X0: 0, X1: 16}}
	var enc frameEncoder

	fd := frameDoneMsg{TaskID: 1, Frame: 1, Region: region}
	f.Add(enc.Encode(&fd, src, capWireDelta, spans, false))
	fd = frameDoneMsg{TaskID: 1, Frame: 1, Region: region}
	f.Add(enc.Encode(&fd, src, capWireDelta|capWireSpanCodec, spans, false))
	fd = frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	f.Add(enc.Encode(&fd, src, capWireSpanCodec, nil, true))
	fd = frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	full := enc.Encode(&fd, src, 0, nil, true)
	f.Add(full)
	f.Add(full[:len(full)-7])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeFrameDone(data)
		if err != nil {
			return
		}
		defer m.Release()
		if m.Kind == frameDelta {
			if err := validateSpans(m.Spans, m.Region); err != nil {
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
		if m.Kind == frameDelta {
			if err := img.ApplySpans(m.Spans, m.Pix); err != nil {
				t.Fatalf("validated delta failed to apply: %v", err)
			}
		}
	})
}

// TestProtocolPinned pins the protocol version, the task wire flag bits
// and the payload encoding ids. These values are the wire format: a
// renumbered bit would make a worker read a task's flags as something
// else entirely, so a change here must fail loudly — and must come with
// a ProtocolVersion bump, which this test then makes deliberate.
func TestProtocolPinned(t *testing.T) {
	pinned := []struct {
		name      string
		got, want int
	}{
		{"protocol version", ProtocolVersion, 3},
		{"delta flag", capWireDelta, 1 << 0},
		{"timeline flag", capWireTimeline, 1 << 2},
		{"span-codec flag", capWireSpanCodec, 1 << 4},
		{"flags mask", wireFlagsMask, 1<<0 | 1<<2 | 1<<4},
		{"raw encoding", encRaw, 0},
		{"span encoding", encSpan, 2},
	}
	for _, c := range pinned {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
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
	var enc frameEncoder

	fd := frameDoneMsg{TaskID: 1, Frame: 0, Region: region}
	got, err := decodeFrameDone(enc.Encode(&fd, src, capWireDelta|capWireSpanCodec, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != frameFull {
		t.Fatalf("key frame kind %d, want full", got.Kind)
	}
	if got.Encoding != encSpan {
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
	fd = frameDoneMsg{TaskID: 1, Frame: 1, Region: region}
	got, err = decodeFrameDone(enc.Encode(&fd, src, capWireDelta|capWireSpanCodec, spans, false))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != frameDelta {
		t.Fatalf("delta frame kind %d, want delta", got.Kind)
	}
	if got.Encoding != encSpan {
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
