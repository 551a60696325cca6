package compositor

import (
	"sync"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/wire"
)

const tw, th = 8, 6

// sinkHarness wires one sink to a fake master conn and N fake worker
// conns, standing in for the farm's sinkControl and sinkLinks.
type sinkHarness struct {
	t      *testing.T
	c      *Compositor
	master msg.Conn
	frames map[int]*fb.Framebuffer
	mu     sync.Mutex
}

func newSinkHarness(t *testing.T) *sinkHarness {
	t.Helper()
	h := &sinkHarness{t: t, frames: make(map[int]*fb.Framebuffer)}
	h.c = New(Config{
		Name: "sink0",
		OnFrame: func(f int, img *fb.Framebuffer) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			if _, dup := h.frames[f]; dup {
				t.Errorf("OnFrame fired twice for frame %d", f)
			}
			h.frames[f] = img.Clone()
			return nil
		},
	})
	t.Cleanup(func() { h.c.Close() })
	local, remote := msg.Pipe(64)
	if err := h.c.AddConn(remote); err != nil {
		t.Fatal(err)
	}
	h.master = local
	return h
}

func (h *sinkHarness) init(gen, start, end int) {
	h.t.Helper()
	err := h.master.Send(msg.Message{Tag: TagInit, Data: msg.Encode(&Init{
		Gen: gen, W: tw, H: th, Start: start, End: end,
	})})
	if err != nil {
		h.t.Fatal(err)
	}
}

// worker dials a data conn and joins under the given name.
func (h *sinkHarness) worker(name string) msg.Conn {
	h.t.Helper()
	local, remote := msg.Pipe(64)
	if err := h.c.AddConn(remote); err != nil {
		h.t.Fatal(err)
	}
	if err := local.Send(msg.Message{Tag: TagJoin, Data: msg.Encode(&Join{Worker: name})}); err != nil {
		h.t.Fatal(err)
	}
	return local
}

// recv pulls the next message off a conn, failing the test on timeout.
func (h *sinkHarness) recv(conn msg.Conn) msg.Message {
	h.t.Helper()
	type res struct {
		m   msg.Message
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := conn.Recv()
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			h.t.Fatalf("recv: %v", r.err)
		}
		return r.m
	case <-time.After(5 * time.Second):
		h.t.Fatal("recv: timed out waiting for sink message")
		panic("unreachable")
	}
}

// testFrame builds a deterministic frame whose pixels encode (frame,x,y).
func testFrame(f int) *fb.Framebuffer {
	img := fb.New(tw, th)
	for y := 0; y < th; y++ {
		for x := 0; x < tw; x++ {
			img.SetRGB(x, y, byte(f*31+x), byte(f*17+y), byte(x^y))
		}
	}
	return img
}

// keyFrame seals a full key-frame result for the whole region.
func keyFrame(f int) []byte {
	region := fb.NewRect(0, 0, tw, th)
	return wire.EncodeFrameDone(wire.FrameDone{
		Frame: f, Region: region, Rendered: region.Area(),
		Kind: wire.KindFull, Pix: wire.ExtractRegion(testFrame(f), region),
	})
}

// deltaFrame seals a dirty-span delta carrying frame f's row 0 over the
// previous frame's pixels.
func deltaFrame(f int) []byte {
	region := fb.NewRect(0, 0, tw, th)
	spans := []fb.Span{{Y: 0, X0: 0, X1: tw}}
	img := testFrame(f)
	pix := make([]byte, 0, tw*3)
	for x := 0; x < tw; x++ {
		r, g, b := img.At(x, 0)
		pix = append(pix, r, g, b)
	}
	return wire.EncodeFrameDone(wire.FrameDone{
		Frame: f, Region: region, Rendered: tw,
		Kind: wire.KindDelta, Spans: spans, Pix: pix,
	})
}

// TestSinkAssembleAndConfirm: the happy path — a key-frame lands, the
// sink confirms delivery to the master with Complete set, and OnFrame
// observes the exact pixels.
func TestSinkAssembleAndConfirm(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 2)
	w := h.worker("worker00")
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(0)}); err != nil {
		t.Fatal(err)
	}
	m := h.recv(h.master)
	if m.Tag != TagDelivered {
		t.Fatalf("master got tag %d, want TagDelivered", m.Tag)
	}
	var d Delivered
	if err := msg.Decode(m.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Gen != 1 || d.Frame != 0 || !d.Complete || d.Worker != "worker00" {
		t.Errorf("confirm = %+v, want gen 1 frame 0 complete by worker00", d)
	}
	if d.RawBytes != tw*th*3 {
		t.Errorf("confirm RawBytes = %d, want %d", d.RawBytes, tw*th*3)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if img := h.frames[0]; img == nil || !img.Equal(testFrame(0)) {
		t.Error("OnFrame pixels differ from the shipped key-frame")
	}
}

// TestSinkOutOfOrderDelta: a delta that arrives before its base frame
// must not be merged. The sink reports MissBase on the control conn —
// keeping the frame requeueable at the master — and asks the shipping
// worker for a fresh key-frame so the chain heals in place.
func TestSinkOutOfOrderDelta(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 3)
	w := h.worker("worker00")

	// Key-frame 0 lands; delta 2 arrives before frame 1 exists.
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(0)}); err != nil {
		t.Fatal(err)
	}
	h.recv(h.master) // frame 0 confirm
	if err := w.Send(msg.Message{Tag: TagPix, Data: deltaFrame(2)}); err != nil {
		t.Fatal(err)
	}

	m := h.recv(h.master)
	if m.Tag != TagMiss {
		t.Fatalf("master got tag %d, want TagMiss", m.Tag)
	}
	var miss Miss
	if err := msg.Decode(m.Data, &miss); err != nil {
		t.Fatal(err)
	}
	if miss.Reason != MissBase || miss.Frame != 2 || miss.Worker != "worker00" {
		t.Errorf("miss = %+v, want MissBase frame 2 by worker00", miss)
	}
	nk := h.recv(w)
	if nk.Tag != TagNeedKey {
		t.Fatalf("worker got tag %d, want TagNeedKey", nk.Tag)
	}
	var k NeedKey
	if err := msg.Decode(nk.Data, &k); err != nil || k != (NeedKey{Frame: 2, Gen: 1}) {
		t.Errorf("NeedKey = %+v, %v, want frame 2 gen 1", k, err)
	}

	// The worker re-keys: full frames for 1 and 2 complete the shard.
	for f := 1; f <= 2; f++ {
		if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(f)}); err != nil {
			t.Fatal(err)
		}
		m := h.recv(h.master)
		if m.Tag != TagDelivered {
			t.Fatalf("frame %d: master got tag %d, want TagDelivered", f, m.Tag)
		}
	}
	st := h.c.Stats()
	if st.DeltaBaseMisses != 1 || st.BaseMissByWorker["worker00"] != 1 {
		t.Errorf("base misses = %d (%v), want 1 attributed to worker00",
			st.DeltaBaseMisses, st.BaseMissByWorker)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for f := 0; f <= 2; f++ {
		if img := h.frames[f]; img == nil || !img.Equal(testFrame(f)) {
			t.Errorf("frame %d pixels wrong after re-key heal", f)
		}
	}
}

// TestSinkDeltaChain: a key-frame followed by an in-order delta merges
// the spans over the previous frame's pixels.
func TestSinkDeltaChain(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 2)
	w := h.worker("worker00")
	for _, data := range [][]byte{keyFrame(0), deltaFrame(1)} {
		if err := w.Send(msg.Message{Tag: TagPix, Data: data}); err != nil {
			t.Fatal(err)
		}
		h.recv(h.master)
	}
	// Frame 1 = frame 0 with row 0 replaced by frame 1's row 0.
	want := testFrame(0)
	src := testFrame(1)
	want.CopyRect(src, fb.NewRect(0, 0, tw, 1))
	h.mu.Lock()
	defer h.mu.Unlock()
	if img := h.frames[1]; img == nil || !img.Equal(want) {
		t.Error("delta frame did not merge over its base")
	}
	if st := h.c.Stats(); st.FramesDelta != 1 || st.FramesFull != 1 {
		t.Errorf("wire stats = %d full, %d delta, want 1 and 1", h.c.Stats().FramesFull, h.c.Stats().FramesDelta)
	}
}

// TestSinkPendsBeforeInit: results that race ahead of the master's
// TagInit are buffered and assembled the moment the init lands.
func TestSinkPendsBeforeInit(t *testing.T) {
	h := newSinkHarness(t)
	w := h.worker("worker00")
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(0)}); err != nil {
		t.Fatal(err)
	}
	// No init yet: nothing may be confirmed or delivered.
	time.Sleep(20 * time.Millisecond)
	h.mu.Lock()
	if len(h.frames) != 0 {
		h.mu.Unlock()
		t.Fatal("sink delivered a frame before init")
	}
	h.mu.Unlock()
	h.init(1, 0, 1)
	m := h.recv(h.master)
	if m.Tag != TagDelivered {
		t.Fatalf("master got tag %d, want TagDelivered for the pended frame", m.Tag)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if img := h.frames[0]; img == nil || !img.Equal(testFrame(0)) {
		t.Error("pended frame not assembled after init")
	}
}

// TestSinkDuplicateDrop: speculation and post-restart re-sends hit the
// sink as duplicate regions; the first result wins, the second is
// dropped without a second confirmation or OnFrame call.
func TestSinkDuplicateDrop(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 1)
	w := h.worker("worker00")
	for i := 0; i < 2; i++ {
		if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(0)}); err != nil {
			t.Fatal(err)
		}
	}
	h.recv(h.master)
	// Force a later message through to prove no second confirm came.
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(5)}); err != nil {
		t.Fatal(err)
	}
	m := h.recv(h.master)
	if m.Tag != TagMiss {
		t.Fatalf("master got tag %d, want the out-of-shard TagMiss marker", m.Tag)
	}
	if st := h.c.Stats(); st.FramesFull != 1 {
		t.Errorf("FramesFull = %d after duplicate, want 1", st.FramesFull)
	}
}

// TestSinkShardAndMalformedMisses: results outside the shard and
// undecodable payloads are reported as misses, never merged.
func TestSinkShardAndMalformedMisses(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 2)
	w := h.worker("worker00")
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(7)}); err != nil {
		t.Fatal(err)
	}
	m := h.recv(h.master)
	var miss Miss
	err := msg.Decode(m.Data, &miss)
	if m.Tag != TagMiss || err != nil || miss.Reason != MissShard || miss.Frame != 7 {
		t.Fatalf("out-of-shard result: got tag %d (%+v, %v), want MissShard frame 7", m.Tag, miss, err)
	}
	if err := w.Send(msg.Message{Tag: TagPix, Data: []byte{0xde, 0xad, 0xbe, 0xef}}); err != nil {
		t.Fatal(err)
	}
	m = h.recv(h.master)
	miss = Miss{}
	err = msg.Decode(m.Data, &miss)
	if m.Tag != TagMiss || err != nil || miss.Reason != MissMalformed {
		t.Fatalf("garbage result: got tag %d (%+v, %v), want MissMalformed", m.Tag, miss, err)
	}
}

// TestSinkReinitResetsShard: a TagInit with a new generation starts a
// fresh assembly — the old run's partial state cannot leak into the new
// one, and confirms carry the new generation.
func TestSinkReinitResetsShard(t *testing.T) {
	h := newSinkHarness(t)
	h.init(1, 0, 2)
	w := h.worker("worker00")
	if err := w.Send(msg.Message{Tag: TagPix, Data: keyFrame(0)}); err != nil {
		t.Fatal(err)
	}
	h.recv(h.master)

	h.init(2, 0, 2)
	// The re-init travels on the master's conn and the delta below on the
	// worker's, so wait until the sink has applied it — frame 0's
	// assembly is gone — or the two race.
	for deadline := time.Now().Add(5 * time.Second); h.c.Frame(0) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sink never applied the re-init")
		}
	}
	// Frame 1 as a delta would have a base under gen 1; after re-init the
	// chain is gone and it must miss.
	if err := w.Send(msg.Message{Tag: TagPix, Data: deltaFrame(1)}); err != nil {
		t.Fatal(err)
	}
	m := h.recv(h.master)
	var miss Miss
	err := msg.Decode(m.Data, &miss)
	if m.Tag != TagMiss || err != nil || miss.Reason != MissBase || miss.Gen != 2 {
		t.Fatalf("post-reinit delta: got tag %d (%+v, %v), want MissBase gen 2", m.Tag, miss, err)
	}
}

// TestRegistryRestart: Dial after Close recreates a sink — the
// in-process stand-in for restarting a crashed compositor daemon.
func TestRegistryRestart(t *testing.T) {
	made := 0
	reg := NewRegistry(func(i int) *Compositor {
		made++
		return New(Config{Name: Addr(i)})
	})
	defer reg.CloseAll()
	conn, err := reg.Dial(Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	first := reg.Sink(0)
	if first == nil {
		t.Fatal("no live sink after dial")
	}
	first.Close()
	if reg.Sink(0) != nil {
		t.Fatal("closed sink still reported live")
	}
	if _, err := reg.Dial(Addr(0)); err != nil {
		t.Fatal(err)
	}
	if made != 2 {
		t.Fatalf("factory ran %d times, want 2 (restart makes a fresh sink)", made)
	}
	if s := reg.Sink(0); s == nil || s == first {
		t.Fatal("redial did not produce a fresh sink")
	}
}
