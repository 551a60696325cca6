package msg

import "testing"

// TestSealedDoesNotAliasPool: Sealed must hand out storage the pool can
// never touch again — reusing the released buffer and packing over it
// must not corrupt a previously sealed message.
func TestSealedDoesNotAliasPool(t *testing.T) {
	b := GetBuffer()
	(&sample{S: "first message"}).Fields(b)
	sealed := b.Sealed()
	b.Release()

	// Hammer the pool: any aliasing between sealed and pooled storage
	// shows up as a CRC failure below.
	for i := 0; i < 16; i++ {
		c := GetBuffer()
		for j := 0; j < 32; j++ {
			c.PackInt(int64(i * j))
		}
		_ = c.Sealed()
		c.Release()
	}

	var got sample
	if err := Decode(sealed, &got); err != nil {
		t.Fatalf("sealed message corrupted after pool reuse: %v", err)
	}
	if got.S != "first message" {
		t.Fatalf("payload %q after pool reuse", got.S)
	}
}

func TestGetBytes(t *testing.T) {
	p := GetBytes(100)
	if len(p) != 100 {
		t.Fatalf("GetBytes(100) returned %d bytes", len(p))
	}
	PutBytes(p)
	// Zero-length requests still work and zero-capacity slices are not
	// pooled (nothing to reuse).
	q := GetBytes(0)
	if len(q) != 0 {
		t.Fatalf("GetBytes(0) returned %d bytes", len(q))
	}
	PutBytes(nil)
}

// TestBytesSizeClasses: GetBytes rounds capacity up to the size class, a
// slice of any capacity serves the class it fills, and a received
// message's storage (not from GetBytes) may be returned too.
func TestBytesSizeClasses(t *testing.T) {
	if p := GetBytes(1000); len(p) != 1000 || cap(p) != 1024 {
		t.Errorf("GetBytes(1000): len %d cap %d, want 1000 1024", len(p), cap(p))
	}
	if p := GetBytes(MaxMessageSize + 1); cap(p) != MaxMessageSize+1 {
		t.Errorf("GetBytes past the largest class: cap %d", cap(p))
	}
	// A 3000-byte slice fills class 11 (requests up to 2048) and must
	// never serve class 12.
	for range 8 {
		PutBytes(make([]byte, 3000))
		if p := GetBytes(4000); cap(p) < 4000 {
			t.Fatalf("GetBytes(4000) returned cap %d", cap(p))
		}
		if p := GetBytes(2048); cap(p) < 2048 {
			t.Fatalf("GetBytes(2048) returned cap %d", cap(p))
		}
	}
}
