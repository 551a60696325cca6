package farm

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nowrender/internal/compositor"
	"nowrender/internal/fb"
	"nowrender/internal/fleetd"
	"nowrender/internal/heappin"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	vm "nowrender/internal/vecmath"
	"nowrender/internal/wire"
)

// messageCase is one message type of the farm, wire, fleetd, compositor
// and objspace protocols: a canonical example, how a receiver decodes
// it, and — for a message with a list — a hostile payload whose count
// the bytes left cannot hold.
type messageCase struct {
	name    string
	m       msg.Layout
	decode  func([]byte) (msg.Layout, error)
	encode  func(msg.Layout) []byte
	hostile []byte
}

// layoutCase is a row decoded by msg.Decode into a fresh P.
func layoutCase[T any, P interface {
	*T
	msg.Layout
}](name string, m P) messageCase {
	return messageCase{name: name, m: m, encode: msg.Encode, decode: func(data []byte) (msg.Layout, error) {
		p := P(new(T))
		return p, msg.Decode(data, p)
	}}
}

// frameDoneCase is a frame-result row: it decodes through
// wire.DecodeFrameDone, which hands back raw pixels, so re-encoding a
// span-coded result codes its pixels again first.
func frameDoneCase(name string, m *frameDoneMsg) messageCase {
	return messageCase{name: name, m: m,
		decode: func(data []byte) (msg.Layout, error) {
			fd, err := wire.DecodeFrameDone(data)
			return &fd, err
		},
		encode: func(l msg.Layout) []byte {
			fd := *l.(*frameDoneMsg)
			if fd.Encoding == encSpan {
				in := fd.Pix
				if stride := wire.FilterStride(fd.Region); fd.Kind == wire.KindFull && stride > 0 {
					in = make([]byte, len(fd.Pix))
					msg.SpanFilterUp(in, fd.Pix, stride)
				}
				fd.Pix = msg.SpanCompress(nil, in)
			}
			return wire.EncodeFrameDone(fd)
		},
	}
}

// hostile seals n zero fields followed by a list count: the fields a
// message packs ahead of its list, then a count of elements the bytes
// left cannot hold.
func hostile(n int, count int64) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	for range n {
		b.PackInt(0)
	}
	b.PackInt(count)
	return b.Sealed()
}

// canonicalTimeline is the timeline piggyback every example that carries
// one ships.
var canonicalTimeline = struct {
	now    int64
	tracks []string
	events []wireEvent
}{
	now:    5_000_000,
	tracks: []string{"w0/main", "w0/tile00"},
	events: []wireEvent{
		{Track: 0, Ev: timeline.Event{Start: 100, Dur: 50, Op: timeline.OpFrame, Frame: 7, Arg: 16}},
		{Track: 1, Ev: timeline.Event{Start: 160, Dur: -1, Op: timeline.OpBaseMiss, Frame: 7}},
	},
}

// messageCases returns every message type once, and each optional
// section both present and absent, in the golden file's order.
func messageCases() []messageCase {
	task := taskMsg{
		Task: partition.Task{ID: 3, Region: fb.NewRect(1, 2, 33, 30), StartFrame: 0, EndFrame: 8},
		W:    40, H: 32, Coherence: true, Samples: 2, Threads: 2,
	}
	fullTask := task
	fullTask.WireFlags = wireFlagsMask
	fullTask.JobStart, fullTask.JobEnd, fullTask.Sinks, fullTask.OSShards = 0, 8, []string{"sink0", "127.0.0.1:7001"}, 4
	fullTask.AAThreshold = 0.1

	var rays stats.RayCounters
	rays.ByKind[0], rays.ByKind[2] = 1234, 56
	ack := frameAckMsg{
		TaskID: 7, Frame: 12, Region: fb.NewRect(0, 8, 16, 16),
		Kind: frameDelta, Encoding: encSpan, Sink: 1, SinkBytes: 4096,
		Rendered: 100, Copied: 156, Regs: 31, Rays: rays, ElapsedNs: 99_000,
	}
	ackTL := ack
	ackTL.TLNow, ackTL.TLTracks, ackTL.TLEvents = canonicalTimeline.now, canonicalTimeline.tracks, canonicalTimeline.events

	key := frameDoneMsg{
		TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 4, 2), Pix: []byte("0123456789abcdefghijklmn"),
		Rendered: 8, Copied: 0, Regs: 11, Rays: rays, ElapsedNs: 12345,
	}
	delta := key
	delta.Kind, delta.Spans, delta.Pix = frameDelta, []fb.Span{{Y: 0, X0: 1, X1: 3}, {Y: 1, X0: 0, X1: 1}}, []byte("abcdefghi")
	deltaTL := delta
	deltaTL.TLNow, deltaTL.TLTracks, deltaTL.TLEvents = canonicalTimeline.now, canonicalTimeline.tracks, canonicalTimeline.events

	osStats := objspace.StatsMsg{Shards: 2, PerShard: []stats.ObjSpaceShard{
		{RaysForwarded: 10, ForwardBytes: 1040, Objects: 4, Tris: 100, ResidentBytes: 5000},
		{RaysForwarded: 3, ForwardBytes: 312, Objects: 2, Tris: 50, ResidentBytes: 2500},
	}, RaysForwarded: 13, ForwardBytes: 1352, PeakResidentBytes: 5000}

	// The fixed fields ahead of the span list and the ack's timeline: the
	// header, the counters and the ray counts.
	const frameHead, ackHead = 13 + vm.NumRayKinds, 15 + vm.NumRayKinds
	const maxUnits = 1 << 16 // fleetd's bound on a unit or member list

	cases := []messageCase{
		layoutCase("farm.hello", &hello{ProtocolVersion, "ws01"}),
		layoutCase("farm.task", &task),
		layoutCase("farm.task+dfb+shards", &fullTask),
		layoutCase("farm.pair", &taskEnd{7, -1}),
		layoutCase("farm.pong", &pong{ping{7, 42}, 99}),
		layoutCase("farm.frameack", &ack),
		layoutCase("farm.frameack+timeline", &ackTL),
		layoutCase("farm.scene", &SceneMsg{"sdl", "sphere { <0,0,0>, 1 }"}),
		layoutCase("objspace.stats", &osStats),
		frameDoneCase("wire.framedone", &key),
		frameDoneCase("wire.framedone+spans", &delta),
		frameDoneCase("wire.framedone+spans+timeline", &deltaTL),
		layoutCase("fleetd.hello", &fleetd.Hello{Name: "replica-a"}),
		layoutCase("fleetd.welcome", &fleetd.Welcome{Epoch: 77, TermMS: 15000}),
		layoutCase("fleetd.acquire", &fleetd.AcquireReq{Req: 9, Want: -1, TermMS: 500}),
		layoutCase("fleetd.grant", &fleetd.Grant{Req: 9, Lease: 42, Slots: 2, Units: []string{"pool/0", "ws01/1"}, TermMS: 500}),
		layoutCase("fleetd.grant+err", &fleetd.Grant{Req: 9, Err: "no capacity"}),
		layoutCase("fleetd.renew", &fleetd.RenewReq{Req: 1, Lease: 42, TermMS: 100}),
		layoutCase("fleetd.renewed", &fleetd.Renewed{Req: 1, Lease: 42, OK: true, TermMS: 100}),
		layoutCase("fleetd.release", &fleetd.Release{Lease: 42}),
		layoutCase("fleetd.stats", &fleetd.StatsMsg{
			Req: 5, Capacity: 8, Free: 3, Leased: 5, Grants: 10, Renews: 20, Expiries: 1, Releases: 9, Waits: 2,
			Members: []fleetd.Member{{Name: "pool", Slots: 4}, {Name: "ws01", Slots: 4}},
		}),
		layoutCase("fleetd.req", &fleetd.Req{Req: 5}),
		layoutCase("compositor.init", &compositor.Init{Gen: 2, W: 40, H: 32, Start: 4, End: 8}),
		layoutCase("compositor.delivered", &compositor.Delivered{
			Gen: 2, Frame: 5, Region: fb.NewRect(0, 16, 40, 32), Worker: "ws01",
			Kind: wire.KindDelta, WireBytes: 300, RawBytes: 1920, Complete: true,
		}),
		layoutCase("compositor.miss", &compositor.Miss{
			Gen: 2, Frame: 5, Region: fb.NewRect(0, 16, 40, 32), Worker: "ws01", Reason: compositor.MissShard,
		}),
		layoutCase("compositor.join", &compositor.Join{Worker: "ws01"}),
		layoutCase("compositor.relay", &compositor.Relay{Worker: "ws01", FrameDone: []byte("frame-done bytes")}),
		layoutCase("compositor.pair", &compositor.NeedKey{Frame: 5, Gen: 2}),
	}
	for name, h := range map[string][]byte{
		"farm.task+dfb+shards":          hostile(16, maxSinks),
		"farm.frameack+timeline":        hostile(ackHead, wire.MaxTLTracks),
		"objspace.stats":                hostile(1, objspace.MaxShards),
		"wire.framedone":                hostile(6, msg.MaxMessageSize),
		"wire.framedone+spans":          hostile(frameHead, 1<<20),
		"wire.framedone+spans+timeline": hostile(frameHead+2, wire.MaxTLTracks),
		"fleetd.grant":                  hostile(3, maxUnits), // 36 bytes
		"fleetd.stats":                  hostile(9, maxUnits), // 84 bytes
		"compositor.relay":              hostile(1, 1<<30),
	} {
		for i := range cases {
			if cases[i].name == name {
				cases[i].hostile = h
			}
		}
	}
	return cases
}

// messagesGoldenPath holds the canonical examples as the bytes a peer
// receives. A codec refactor must leave every line unchanged.
const messagesGoldenPath = "testdata/golden/messages.hex"

// TestMessagesGolden holds every message's bytes to the committed file.
// Rewrite it with `go test ./internal/farm -run MessagesGolden -update`
// only for a deliberate layout change, named in the commit.
func TestMessagesGolden(t *testing.T) {
	cases := messageCases()
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# One canonical example of every message, hex-encoded as it crosses the wire.\n")
		for _, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, hex.EncodeToString(c.encode(c.m)))
		}
		if err := os.WriteFile(messagesGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(messagesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, data, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q malformed", line)
		}
		want[name] = data
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d messages, the test %d", len(want), len(cases))
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.encode(c.m)); got != want[c.name] {
			t.Errorf("%s encodes to\n  %s\nthe golden file has\n  %s", c.name, got, want[c.name])
		}
	}
}

// TestProtocolRoundTrips holds every message to the one set of decode
// rules: it decodes back to itself, a byte more or less is refused, and
// a list count the bytes left cannot hold is refused before anything is
// allocated for it.
func TestProtocolRoundTrips(t *testing.T) {
	for _, c := range messageCases() {
		data := c.encode(c.m)
		got, err := c.decode(data)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got, c.m) {
			t.Errorf("%s round-tripped to %+v, want %+v", c.name, got, c.m)
		}
		body := data[:len(data)-4]
		if _, err := c.decode(msg.Seal(append(append([]byte(nil), body...), 0))); err == nil {
			t.Errorf("%s with a trailing byte decoded", c.name)
		}
		if _, err := c.decode(msg.Seal(append([]byte(nil), body[:len(body)-1]...))); err == nil {
			t.Errorf("%s short of a byte decoded", c.name)
		}
		if _, err := c.decode([]byte{1}); err == nil || !strings.HasPrefix(err.Error(), strings.Split(c.name, ".")[0]+": bad ") {
			t.Errorf("%s: garbage gave %v, want an error naming the package", c.name, err)
		}
		if c.hostile == nil {
			continue
		}
		if _, err := c.decode(c.hostile); err == nil {
			t.Errorf("%s: hostile count decoded", c.name)
		}
		if n, _ := heappin.PerCall(t, 20, func() { _, _ = c.decode(c.hostile) }); n >= 1024 {
			t.Errorf("%s: a %d-byte hostile payload allocates %d B, want under 1 KiB", c.name, len(c.hostile), n)
		}
	}
}

// TestValidateRefuses: a message that packs fine but holds values no
// sane peer sends is refused by its Validate, after the fields unpack.
func TestValidateRefuses(t *testing.T) {
	for name, m := range map[string]msg.Layout{
		"hello of another version":      &hello{ProtocolVersion + 1, "ws01"},
		"task of no resolution":         &taskMsg{},
		"ack from a negative sink":      &frameAckMsg{Sink: -1},
		"ack event on a missing track":  &frameAckMsg{TLNow: 1, TLEvents: []wireEvent{{Track: 0}}},
		"stats of too many shards":      &objspace.StatsMsg{Shards: objspace.MaxShards + 1},
		"stats row of negative objects": &objspace.StatsMsg{Shards: 1, PerShard: []stats.ObjSpaceShard{{Objects: -1}}},
		"sink init of no resolution":    &compositor.Init{Start: 0, End: 1},
		"sink init of an empty shard":   &compositor.Init{W: 4, H: 4, Start: 3, End: 3},
	} {
		if err := msg.Decode(msg.Encode(m), m); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
	// The totals of a stats report are recomputed from its rows.
	sent := objspace.StatsMsg{Shards: 2, PerShard: []stats.ObjSpaceShard{{RaysForwarded: 3, ResidentBytes: 9}}, RaysForwarded: 99}
	var got objspace.StatsMsg
	if err := msg.Decode(msg.Encode(&sent), &got); err != nil || got.RaysForwarded != 3 || got.PeakResidentBytes != 9 {
		t.Errorf("stats totals = %+v, %v; want them from the rows", got, err)
	}
}

// FuzzProtocolDecode proves the one decoder total over every message
// type: arbitrary bytes — including bit-flipped and truncated captures of
// real messages, and the same bytes under a valid seal, so that mutations
// reach the fields — either decode or return an error, and never panic.
// Whatever decodes re-encodes to a message that decodes to the same
// value, and a task or frame result that decodes is one a worker or the
// master can act on. Combined with the CRC seal this is the master's
// license to treat a malformed message as "retire the sender" rather
// than "crash the run".
// FuzzFleetdDecode and FuzzDeltaDecode start from deeper broker and
// frame-result seeds and check those messages' invariants.
func FuzzProtocolDecode(f *testing.F) {
	// Farm messages, and values a decoder must refuse rather than
	// ignore: a task carrying the retired flate flag bit, and a frame
	// result claiming the retired encoding id 1.
	tm := taskMsg{
		Task: partition.Task{ID: 3, Region: fb.NewRect(1, 2, 33, 30), StartFrame: 0, EndFrame: 8},
		W:    40, H: 32, Coherence: true, Samples: 2, Threads: 2,
	}
	task := msg.Encode(&tm)
	tm.WireFlags = wireFlagsMask
	tm.JobStart, tm.JobEnd, tm.Sinks, tm.OSShards = 0, 8, []string{"sink0", "127.0.0.1:7001"}, 4
	tm.AAThreshold = 0.1
	fullTask := msg.Encode(&tm)
	tm.WireFlags = capWireDelta | 1<<1
	retiredFlag := msg.Encode(&tm)
	retiredEnc := wire.EncodeFrameDone(frameDoneMsg{
		TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 4, 2),
		Kind: frameDelta, Encoding: 1, Pix: []byte{0x01},
	})
	fd := wire.EncodeFrameDone(frameDoneMsg{
		TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 4, 2),
		Pix: make([]byte, 4*2*3), Rendered: 8, Copied: 2, Regs: 11, ElapsedNs: 12345,
	})
	var we frameEncoder
	src := fb.New(8, 8)
	dd := frameDoneMsg{TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 8, 8)}
	delta := we.Encode(&dd, src, capWireDelta, []fb.Span{{Y: 1, X0: 1, X1: 2}}, false)
	dd = frameDoneMsg{TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 8, 8)}
	zipped := we.Encode(&dd, src, capWireDelta|capWireSpanCodec, nil, true)
	for _, seed := range [][]byte{
		task, fullTask, retiredFlag, fd, retiredEnc,
		msg.Encode(&taskEnd{7, 42}), delta, zipped,
		msg.Encode(&hello{ProtocolVersion, "ws01"}), msg.Encode(&pong{ping{7, 42}, 99}),
		task[:len(task)-5], // truncated
		{},
		// A sealed-but-nonsense body: passes CRC, must fail validation.
		msg.Seal([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}),
	} {
		f.Add(seed)
	}
	// Every message's canonical example.
	cases := messageCases()
	for _, c := range cases {
		f.Add(c.encode(c.m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, msg.Seal(append([]byte(nil), data...))} {
			for _, c := range cases {
				m, err := c.decode(in)
				if err != nil {
					continue
				}
				checkDecoded(t, c.name, m)
				again, err := c.decode(c.encode(m))
				if err != nil {
					t.Fatalf("%s: re-encoded %+v does not decode: %v", c.name, m, err)
				}
				if !reflect.DeepEqual(again, m) {
					t.Fatalf("%s: decoded %+v, re-encoded and decoded %+v", c.name, m, again)
				}
				if fd, ok := m.(*frameDoneMsg); ok {
					fd.Release()
					again.(*frameDoneMsg).Release()
				}
			}
		}
	})
}

// checkDecoded restates, independently of Validate, what a worker and
// the master rely on in a decoded task and frame result. (FuzzDeltaDecode
// in internal/wire checks a frame result's spans and payload.)
func checkDecoded(t *testing.T, name string, m msg.Layout) {
	switch m := m.(type) {
	case *taskMsg:
		// Sane geometry the worker can act on without allocating
		// absurdly or panicking in SetRGB.
		if m.W <= 0 || m.H <= 0 || m.W > maxTaskDim || m.H > maxTaskDim {
			t.Fatalf("%s: accepted resolution %dx%d", name, m.W, m.H)
		}
		r := m.Task.Region
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > m.W || r.Y1 > m.H || r.X0 >= r.X1 || r.Y0 >= r.Y1 {
			t.Fatalf("%s: accepted region %v outside %dx%d", name, r, m.W, m.H)
		}
		if m.Task.StartFrame < 0 || m.Task.EndFrame <= m.Task.StartFrame {
			t.Fatalf("%s: accepted frame range [%d,%d)", name, m.Task.StartFrame, m.Task.EndFrame)
		}
		if m.WireFlags&^wireFlagsMask != 0 {
			t.Fatalf("%s: accepted unknown wire flags %#x", name, m.WireFlags)
		}
		if !(m.AAThreshold >= 0 && m.AAThreshold <= 1) {
			t.Fatalf("%s: accepted antialiasing threshold %v", name, m.AAThreshold)
		}
	case *frameDoneMsg:
		if m.Encoding != encRaw && m.Encoding != encSpan {
			t.Fatalf("%s: accepted encoding id %d", name, m.Encoding)
		}
	}
}

// TestSceneRejectsFlippedByte: the scene bootstrap is sealed like every
// other message, so a byte corrupted in transit is an error at the
// worker, not a different scene.
func TestSceneRejectsFlippedByte(t *testing.T) {
	enc := msg.Encode(&SceneMsg{"sdl", "sphere { <0,0,0>, 1 }"})
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		var s SceneMsg
		if err := msg.Decode(bad, &s); err == nil {
			t.Fatalf("flip at byte %d decoded as scene %q", i, s.Source)
		}
	}
}

// TestProtocolDecodeRejectsDamage pins the CRC property the chaos layer
// leans on: every single-byte corruption and every truncation of a real
// task message is rejected at decode.
func TestProtocolDecodeRejectsDamage(t *testing.T) {
	enc := msg.Encode(&taskMsg{
		Task: partition.Task{ID: 1, Region: fb.NewRect(0, 0, 8, 8), StartFrame: 0, EndFrame: 4},
		W:    8, H: 8, Samples: 1,
	})
	if err := msg.Decode(enc, &taskMsg{}); err != nil {
		t.Fatalf("clean message rejected: %v", err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if err := msg.Decode(bad, &taskMsg{}); err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
	for n := 0; n < len(enc); n++ {
		if err := msg.Decode(enc[:n], &taskMsg{}); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}
