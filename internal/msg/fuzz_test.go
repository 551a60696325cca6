package msg

import (
	"bytes"
	"testing"
)

// FuzzBufferUnpack proves the pack/unpack buffer is total over arbitrary
// input: any byte string — malformed, truncated, or hostile (length
// prefixes near MaxInt64) — either unpacks or sets the sticky error, and
// never panics or over-reads. This is the boundary every wire payload
// crosses, so the guarantee is what lets the master absorb malformed
// messages by retiring their sender instead of crashing.
func FuzzBufferUnpack(f *testing.F) {
	// Well-formed seed: one of everything.
	good := packed(&sample{I: -7, F: 3.5, S: "worker01", P: []byte("pixels"), B: true, N: 3, U: 9})
	f.Add(good)
	// Truncations at interesting offsets.
	f.Add(good[:len(good)-1])
	f.Add(good[:9])
	f.Add([]byte{})
	// Hostile length prefixes: MaxInt64, MaxInt64-ish sums that would
	// overflow pos+int(n), and negative counts.
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Drive every field kind in a fixed rotation until the buffer
		// errors or runs dry; none may panic.
		b := Unpacker(data)
		var (
			i  int64
			x  float64
			p  []byte
			s  string
			ok bool
			n  int
		)
		for k := 0; b.err == nil && b.left() > 0 && k < 1024; k++ {
			switch k % 6 {
			case 0:
				b.Int64(&i)
			case 1:
				b.Float(&x)
			case 2:
				b.Bytes(&p)
			case 3:
				b.String(&s)
			case 4:
				b.Bool(&ok)
			case 5:
				b.Count(&n, 1<<20, 8)
			}
		}
		// Sticky error: once set, every unpack stays zero-valued.
		if b.err != nil {
			i, p = 1, []byte{1}
			b.Int64(&i)
			b.Bytes(&p)
			if i != 0 || p != nil {
				t.Fatalf("unpacks after error = %d, %v, want zero values", i, p)
			}
		}

		// Open must never panic either, and on success returns a strict
		// prefix.
		if body, err := Open(data); err == nil {
			if len(body) != len(data)-4 {
				t.Fatalf("Open returned %d bytes from %d", len(body), len(data))
			}
		}
	})
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		sealed := Seal(append([]byte(nil), payload...))
		body, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("round trip changed payload")
		}
	}
}

func TestOpenDetectsDamage(t *testing.T) {
	sealed := Seal([]byte("the quick brown fox"))
	// Every single-byte flip must be caught.
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x40
		if _, err := Open(bad); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
	// Every truncation must be caught (CRC of a prefix almost never
	// matches; the short ones fail the length check outright).
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestHubPostAndDetach(t *testing.T) {
	h := NewHub()
	a, b := Pipe(4)
	if err := h.Attach("w1", a); err != nil {
		t.Fatal(err)
	}
	// Post injects a synthetic message into the merged stream.
	h.Post(Message{Tag: -42})
	m, err := h.Recv()
	if err != nil || m.Tag != -42 {
		t.Fatalf("posted message not received: %v %v", m, err)
	}
	// Detach severs the slave: its pump posts TagDown, and the peer's
	// end observes closure.
	h.Detach("w1")
	m, err = h.Recv()
	if err != nil || m.Tag != TagDown || m.From != "w1" {
		t.Fatalf("expected TagDown from w1, got %v %v", m, err)
	}
	if _, err := b.Recv(); err == nil {
		t.Error("detached slave's conn still open")
	}
	h.Detach("nobody") // unknown name: no-op
	h.Close()
	// Post after close must not panic or deliver.
	h.Post(Message{Tag: 1})
}
