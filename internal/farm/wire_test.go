package farm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

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
		"version 3":             versionHello("ws01", 3),
		"version 5":             versionHello("ws01", 5),
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
	everything.AAThreshold = 0.1
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
	// An antialiasing threshold outside the tracer's domain is rejected.
	for _, threshold := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		bad = base
		bad.AAThreshold = threshold
		if _, err := decodeTask(encodeTask(bad)); err == nil {
			t.Errorf("antialiasing threshold %v decoded successfully", threshold)
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
	soak(t, 23, Config{WireDelta: true, WireSpanCodec: true}, bothWays, faulty.Stats{Dropped: 2, Delayed: 2}, stats.FaultCounters{
		DuplicatesDropped: 2, FramesRequeued: 3, SpeculativeTasks: 2, PingsSent: 12, PongsReceived: 7,
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
		{"protocol version", ProtocolVersion, 4},
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
