// Package msg is the message-passing substrate standing in for PVM in
// the paper's master/slave render farm. It provides PVM-style typed
// pack/unpack buffers (pvm_pkint/pvm_upkint and friends), a Conn
// abstraction with two interchangeable transports — in-process channels
// for the virtual NOW and real TCP for a physical one — and a Hub that
// multiplexes a master's connections to its slaves.
//
// As in the paper, communication is strictly master<->slave: slaves never
// talk to each other.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer is a typed serialisation buffer. Packing appends; unpacking
// consumes from the front. Errors are sticky: after the first failed
// unpack all further unpacks return zero values and Err reports the
// failure (mirroring how PVM programs check once after unpacking).
type Buffer struct {
	data []byte
	pos  int
	err  error
}

// NewBuffer returns an empty buffer ready for packing.
func NewBuffer() *Buffer { return &Buffer{} }

// FromBytes returns a buffer that unpacks from data.
func FromBytes(data []byte) *Buffer { return &Buffer{data: data} }

// Bytes returns the packed contents.
func (b *Buffer) Bytes() []byte { return b.data }

// Err returns the first unpack error, if any.
func (b *Buffer) Err() error { return b.err }

// Len returns the number of unconsumed bytes.
func (b *Buffer) Len() int { return len(b.data) - b.pos }

func (b *Buffer) fail(op string) {
	if b.err == nil {
		b.err = fmt.Errorf("msg: %s past end of buffer (pos %d, len %d)", op, b.pos, len(b.data))
	}
}

// PackInt appends a 64-bit signed integer.
func (b *Buffer) PackInt(v int64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(v))
	b.data = append(b.data, tmp[:]...)
}

// UnpackInt consumes a 64-bit signed integer.
func (b *Buffer) UnpackInt() int64 {
	if b.err != nil || b.pos+8 > len(b.data) {
		b.fail("UnpackInt")
		return 0
	}
	v := int64(binary.BigEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return v
}

// PackFloat appends a float64.
func (b *Buffer) PackFloat(v float64) {
	b.PackInt(int64(math.Float64bits(v)))
}

// UnpackFloat consumes a float64.
func (b *Buffer) UnpackFloat() float64 {
	return math.Float64frombits(uint64(b.UnpackInt()))
}

// PackBytes appends a length-prefixed byte slice.
func (b *Buffer) PackBytes(p []byte) {
	b.PackInt(int64(len(p)))
	b.data = append(b.data, p...)
}

// UnpackBytes consumes a length-prefixed byte slice. The returned slice
// aliases the buffer's storage; callers that retain it must copy.
func (b *Buffer) UnpackBytes() []byte {
	n := b.UnpackInt()
	if b.err != nil {
		return nil
	}
	// Compare against the remaining byte count rather than computing
	// b.pos+int(n): a hostile length prefix near MaxInt64 would overflow
	// the sum and slip past the check into a slice-bounds panic.
	if n < 0 || n > int64(len(b.data)-b.pos) {
		b.fail("UnpackBytes")
		return nil
	}
	p := b.data[b.pos : b.pos+int(n)]
	b.pos += int(n)
	return p
}

// PackString appends a string.
func (b *Buffer) PackString(s string) { b.PackBytes([]byte(s)) }

// UnpackString consumes a string.
func (b *Buffer) UnpackString() string { return string(b.UnpackBytes()) }

// PackBool appends a boolean.
func (b *Buffer) PackBool(v bool) {
	if v {
		b.PackInt(1)
	} else {
		b.PackInt(0)
	}
}

// UnpackBool consumes a boolean.
func (b *Buffer) UnpackBool() bool { return b.UnpackInt() != 0 }
