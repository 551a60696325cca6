package msg

import "testing"

// TestSealedDoesNotAliasPool: Sealed must hand out storage the pool can
// never touch again — reusing the released buffer and packing over it
// must not corrupt a previously sealed message.
func TestSealedDoesNotAliasPool(t *testing.T) {
	b := GetBuffer()
	b.PackString("first message")
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

	body, err := Open(sealed)
	if err != nil {
		t.Fatalf("sealed message corrupted after pool reuse: %v", err)
	}
	if got := FromBytes(body).UnpackString(); got != "first message" {
		t.Fatalf("payload %q after pool reuse", got)
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
