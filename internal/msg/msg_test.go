package msg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nowrender/internal/heappin"
)

// sample is a message with one field of every kind.
type sample struct {
	I int64
	F float64
	S string
	P []byte
	B bool
	N int
	U uint64
}

func (m *sample) Fields(b *Buffer) {
	b.Int64(&m.I)
	b.Float(&m.F)
	b.String(&m.S)
	b.Bytes(&m.P)
	b.Bool(&m.B)
	b.Int(&m.N)
	b.Uint64(&m.U)
}

// packed returns what m's fields pack to, unsealed.
func packed(m Layout) []byte {
	b := GetBuffer()
	defer b.Release()
	m.Fields(b)
	return append([]byte(nil), b.data...)
}

func TestBufferRoundTrip(t *testing.T) {
	in := sample{I: -42, F: 3.14159, S: "hello NOW", P: []byte{1, 2, 3}, B: true, N: -7, U: 1 << 63}
	var out sample
	if err := Decode(Encode(&in), &out); err != nil {
		t.Fatal(err)
	}
	if out.I != in.I || out.F != in.F || out.S != in.S || !bytes.Equal(out.P, in.P) ||
		out.B != in.B || out.N != in.N || out.U != in.U {
		t.Errorf("round trip: %+v, want %+v", out, in)
	}
	// The fields are 8-byte integers, strings and byte slices behind an
	// 8-byte length: 7*8 + 9 + 3 bytes.
	if n := len(packed(&in)); n != 68 {
		t.Errorf("sample packs to %d bytes, want 68", n)
	}
}

func TestBufferStickyError(t *testing.T) {
	u := Unpacker([]byte{1, 2})
	v := int64(99)
	u.Int64(&v)
	if v != 0 {
		t.Errorf("short unpack returned %d", v)
	}
	if u.err == nil {
		t.Fatal("no error after short read")
	}
	// Further unpacks stay zero, no panic.
	s, ok, f := "x", true, 1.0
	u.String(&s)
	u.Bool(&ok)
	u.Float(&f)
	if s != "" || ok || f != 0 {
		t.Error("unpacks after error returned non-zero")
	}
	if u.End() == nil {
		t.Error("End reported no error")
	}

	// The error gives where the short field began, however many fields
	// are tried after it, and an earlier error is kept.
	u = Unpacker(make([]byte, 10))
	u.Int64(&v)
	u.Int64(&v)
	u.String(&s)
	u.Float(&f)
	const want = "msg: field past end of buffer (pos 8, len 10)"
	if err := u.End(); err == nil || err.Error() != want {
		t.Errorf("End = %v, want %q", err, want)
	}
	u = Unpacker([]byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 0})
	n := 0
	u.Count(&n, 0, 1)
	u.Int64(&v)
	if err := u.End(); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("End = %v, want the count error", err)
	}
}

func TestBufferCorruptLengths(t *testing.T) {
	for _, n := range []int64{1 << 40, -1, math.MaxInt64} {
		b := GetBuffer()
		b.PackInt(n)
		u := Unpacker(append([]byte(nil), b.data...))
		b.Release()
		p := []byte("old")
		u.Bytes(&p)
		if p != nil || u.err == nil {
			t.Errorf("byte length %d accepted", n)
		}
	}
}

// TestDecodeRules: a sealed message decodes only when it is exactly its
// fields, its counts fit the bytes left and Validate accepts it, and
// the error names the package and message.
func TestDecodeRules(t *testing.T) {
	good := Encode(&sample{S: "s"})
	body := packed(&sample{S: "s"})
	for name, data := range map[string][]byte{
		"corrupt seal":  append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
		"short":         Seal(body[:len(body)-1]),
		"trailing byte": Seal(append(append([]byte(nil), body...), 0)),
	} {
		var out sample
		err := Decode(data, &out)
		if err == nil {
			t.Errorf("%s: decoded", name)
		} else if !strings.HasPrefix(err.Error(), "msg: bad sample: ") {
			t.Errorf("%s: error %q does not name the message", name, err)
		}
	}
	var c counted
	if err := Decode(Encode(&counted{Items: []string{"a", "b"}}), &c); err != nil || len(c.Items) != 2 {
		t.Fatalf("counted round trip: %+v, %v", c, err)
	}
	if err := Decode(Encode(&counted{Items: []string{"a", "b", "c"}}), &c); err == nil || !strings.Contains(err.Error(), "at most 2") {
		t.Errorf("Validate did not run: %v", err)
	}
	// A count of 2^20 strings in a 16-byte body fails before any list
	// is made.
	b := GetBuffer()
	b.PackInt(1 << 20)
	b.PackInt(0)
	hostile := b.Sealed()
	b.Release()
	if err := Decode(hostile, &c); err == nil || !strings.Contains(err.Error(), "count 1048576") {
		t.Errorf("hostile count: %v", err)
	}
}

// counted is a message with a list and a Validate method.
type counted struct{ Items []string }

func (m *counted) Fields(b *Buffer) {
	List(b, &m.Items, 1<<20, 8)
	for i := range m.Items {
		b.String(&m.Items[i])
	}
}

func (m *counted) Validate() error {
	if len(m.Items) > 2 {
		return fmt.Errorf("%d items, at most 2", len(m.Items))
	}
	return nil
}

// Property: any (int, float, string) triple round-trips, floats bit for
// bit.
func TestQuickBufferRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		in := sample{I: i, F: fl, S: s}
		var out sample
		if err := Decode(Encode(&in), &out); err != nil {
			return false
		}
		return out.I == i && math.Float64bits(out.F) == math.Float64bits(fl) && out.S == s
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
				if err := a.Send(Message{Tag: 1, Data: Encode(&sample{N: i})}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				m, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				var got sample
				if err := Decode(m.Data, &got); err != nil || got.N != i {
					t.Fatalf("message %d arrived as %d (%v)", i, got.N, err)
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
			if err := a.Send(Message{Tag: i, Data: Encode(&sample{N: i, P: make([]byte, 1000)})}); err != nil {
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
		var got sample
		if err := Decode(m.Data, &got); err != nil || got.N != m.Tag {
			t.Fatalf("frame interleaving corrupted message: tag %d, body %d (%v)", m.Tag, got.N, err)
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
