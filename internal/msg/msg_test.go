package msg

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nowrender/internal/heappin"
)

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PackInt(-42)
	b.PackFloat(3.14159)
	b.PackString("hello NOW")
	b.PackBytes([]byte{1, 2, 3})
	b.PackBool(true)

	u := FromBytes(b.Bytes())
	if got := u.UnpackInt(); got != -42 {
		t.Errorf("int = %d", got)
	}
	if got := u.UnpackFloat(); got != 3.14159 {
		t.Errorf("float = %v", got)
	}
	if got := u.UnpackString(); got != "hello NOW" {
		t.Errorf("string = %q", got)
	}
	if got := u.UnpackBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := u.UnpackBool(); !got {
		t.Error("bool = false")
	}
	if u.Err() != nil {
		t.Errorf("unexpected error: %v", u.Err())
	}
	if u.Len() != 0 {
		t.Errorf("%d bytes left over", u.Len())
	}
}

func TestBufferStickyError(t *testing.T) {
	u := FromBytes([]byte{1, 2})
	if got := u.UnpackInt(); got != 0 {
		t.Errorf("short unpack returned %d", got)
	}
	if u.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Further unpacks stay zero, no panic.
	if u.UnpackString() != "" || u.UnpackBool() || u.UnpackFloat() != 0 {
		t.Error("unpacks after error returned non-zero")
	}
}

func TestBufferCorruptLengths(t *testing.T) {
	b := NewBuffer()
	b.PackInt(1 << 40) // absurd length prefix
	u := FromBytes(b.Bytes())
	if u.UnpackBytes() != nil || u.Err() == nil {
		t.Error("absurd byte length accepted")
	}
	b2 := NewBuffer()
	b2.PackInt(-1)
	u2 := FromBytes(b2.Bytes())
	if u2.UnpackBytes() != nil || u2.Err() == nil {
		t.Error("negative byte length accepted")
	}
}

// Property: any sequence of (int, float, string) triples round-trips.
func TestQuickBufferRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		b := NewBuffer()
		b.PackInt(i)
		b.PackFloat(fl)
		b.PackString(s)
		u := FromBytes(b.Bytes())
		gi := u.UnpackInt()
		gf := u.UnpackFloat()
		gs := u.UnpackString()
		if u.Err() != nil {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns via
		// re-pack instead.
		b2 := NewBuffer()
		b2.PackFloat(gf)
		b3 := NewBuffer()
		b3.PackFloat(fl)
		return gi == i && bytes.Equal(b2.Bytes(), b3.Bytes()) && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testConnPair(t *testing.T, kind string) (Conn, Conn, func()) {
	t.Helper()
	switch kind {
	case "chan":
		// Capacity must cover the ordering test's 50 queued messages;
		// blocking-when-full behaviour is covered separately.
		a, b := Pipe(64)
		return a, b, func() { a.Close() }
	case "tcp":
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var server Conn
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := l.Accept()
			if err == nil {
				server = c
			}
		}()
		client, err := Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		l.Close()
		if server == nil {
			t.Fatal("accept failed")
		}
		return client, server, func() { client.Close(); server.Close() }
	}
	panic("unknown kind")
}

func TestConnTransports(t *testing.T) {
	for _, kind := range []string{"chan", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()

			if err := a.Send(Message{Tag: 7, From: "master", Data: []byte("payload")}); err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Tag != 7 || got.From != "master" || !bytes.Equal(got.Data, []byte("payload")) {
				t.Errorf("got %+v", got)
			}

			// Reverse direction.
			if err := b.Send(Message{Tag: 9, Data: []byte{1}}); err != nil {
				t.Fatal(err)
			}
			got, err = a.Recv()
			if err != nil || got.Tag != 9 {
				t.Fatalf("reverse: %+v, %v", got, err)
			}

			// Ordering: many messages arrive in order.
			for i := 0; i < 50; i++ {
				buf := NewBuffer()
				buf.PackInt(int64(i))
				if err := a.Send(Message{Tag: 1, Data: buf.Bytes()}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				m, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if got := FromBytes(m.Data).UnpackInt(); got != int64(i) {
					t.Fatalf("message %d arrived as %d", i, got)
				}
			}
		})
	}
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	for _, kind := range []string{"chan", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			a, b, cleanup := testConnPair(t, kind)
			defer cleanup()
			done := make(chan error, 1)
			go func() {
				_, err := b.Recv()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			a.Close()
			b.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Recv returned nil error after close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not unblock on close")
			}
		})
	}
}

func TestChanConnSendAfterClose(t *testing.T) {
	a, b := Pipe(1)
	_ = b
	a.Close()
	if err := a.Send(Message{Tag: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v", err)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	a, b, cleanup := testConnPair(t, "tcp")
	defer cleanup()
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := NewBuffer()
			buf.PackInt(int64(i))
			buf.PackBytes(make([]byte, 1000))
			if err := a.Send(Message{Tag: i, Data: buf.Bytes()}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		u := FromBytes(m.Data)
		v := u.UnpackInt()
		if int(v) != m.Tag {
			t.Fatalf("frame interleaving corrupted message: tag %d, body %d", m.Tag, v)
		}
		seen[m.Tag] = true
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("received %d distinct messages, want %d", len(seen), n)
	}
}

// TestTCPSendCopiesNothing: a Send writes the header and the payload
// with one writev (and then hands the payload to the byte pool), so a
// 64 kB message allocates no 64 kB copy. The payloads are made before
// the count, and the far end drains the socket raw, so only Send's own
// allocations count.
func TestTCPSendCopiesNothing(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, far.(*tcpConn).nc)
	}()

	const runs = 20 // a window; heappin.PerCall measures five after one warm-up
	payloads := make([][]byte, 5*runs+1)
	for i := range payloads {
		payloads[i] = make([]byte, 64<<10)
	}
	sent := 0
	per, _ := heappin.PerCall(t, runs, func() {
		if err := near.Send(Message{Tag: 3, From: "worker07", Data: payloads[sent]}); err != nil {
			t.Fatal(err)
		}
		sent++
	})
	near.Close()
	<-drained
	if per >= 1<<10 {
		t.Errorf("a 64 kB Send allocates %d B, want < 1 kB", per)
	}
}

func TestHubRouting(t *testing.T) {
	h := NewHub()
	mA, wA := Pipe(4)
	mB, wB := Pipe(4)
	if err := h.Attach("alpha", mA); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("beta", mB); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("alpha", mA); err == nil {
		t.Error("duplicate attach accepted")
	}
	if got := len(h.Names()); got != 2 {
		t.Errorf("Names = %d", got)
	}

	// Route to one slave.
	if err := h.Send("alpha", Message{Tag: 5, Data: []byte("task")}); err != nil {
		t.Fatal(err)
	}
	m, err := wA.Recv()
	if err != nil || m.Tag != 5 {
		t.Fatalf("alpha recv: %+v %v", m, err)
	}
	if err := h.Send("gamma", Message{}); err == nil {
		t.Error("unknown slave accepted")
	}

	// Merged receive labels origin.
	wB.Send(Message{Tag: 8, Data: []byte("result")})
	got, err := h.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "beta" || got.Tag != 8 {
		t.Errorf("hub recv = %+v", got)
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close = %v", err)
	}
}

func TestTCPMessageTooLarge(t *testing.T) {
	a, b, cleanup := testConnPair(t, "tcp")
	defer cleanup()
	_ = b
	huge := make([]byte, MaxMessageSize+1)
	if err := a.Send(Message{Tag: 1, Data: huge}); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestHubReportsWorkerDown(t *testing.T) {
	h := NewHub()
	mA, wA := Pipe(4)
	if err := h.Attach("alpha", mA); err != nil {
		t.Fatal(err)
	}
	// The worker end closing (crash) must surface as a TagDown message.
	wA.Close()
	m, err := h.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Tag != TagDown || m.From != "alpha" {
		t.Errorf("got %+v, want TagDown from alpha", m)
	}
	h.Close()
}

func TestHubCloseDoesNotReportDown(t *testing.T) {
	h := NewHub()
	mA, wA := Pipe(4)
	_ = wA
	if err := h.Attach("alpha", mA); err != nil {
		t.Fatal(err)
	}
	// Closing the hub itself is shutdown, not a worker failure; Recv
	// must report closure, not a down message.
	done := make(chan Message, 1)
	go func() {
		m, err := h.Recv()
		if err == nil {
			done <- m
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	h.Close()
	if m, ok := <-done; ok && m.Tag == TagDown {
		t.Errorf("hub shutdown produced a spurious TagDown: %+v", m)
	}
}
