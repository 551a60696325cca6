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
	"errors"
	"fmt"
	"math"
	"strings"
)

// Buffer is a typed serialisation buffer in one of two modes: a packing
// buffer (GetBuffer) appends, an unpacking one (Unpacker) consumes from
// the front. Its field methods — Int, Int64, Uint64, Float, Bool,
// String, Bytes, Count and More, and the functions Num and List — take a
// pointer and pack what it points at or unpack into it, by the buffer's
// mode, never writing to a field they pack, so that one method lists a
// message's fields for both directions (see Layout). Unpack errors are
// sticky: after the first failure every further field unpacks as its
// zero value and End reports the failure, the way a PVM program checks
// once after unpacking.
type Buffer struct {
	data   []byte
	pos    int
	err    error
	unpack bool
}

// Unpacker returns a buffer that unpacks from body, by value so that a
// hot decoder can keep it on its stack.
func Unpacker(body []byte) Buffer { return Buffer{data: body, unpack: true} }

// left returns the number of unconsumed bytes.
func (b *Buffer) left() int { return len(b.data) - b.pos }

// End finishes an unpack: the first error, or one for bytes left over.
// A message is exactly its fields.
func (b *Buffer) End() error {
	switch {
	case b.err == errPastEnd:
		// No field moves pos after the first error, so it is still
		// where the short field began.
		return fmt.Errorf("msg: field past end of buffer (pos %d, len %d)", b.pos, len(b.data))
	case b.err == nil && b.left() != 0:
		return fmt.Errorf("msg: %d trailing bytes", b.left())
	}
	return b.err
}

// errPastEnd marks a field unpacked past the end of the buffer. End
// formats the error, so that unpackInt stays cheap enough for Int,
// Int64, Uint64 and Float to inline into every Fields method.
var errPastEnd = errors.New("msg: field past end of buffer")

func (b *Buffer) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("msg: "+format, args...)
	}
}

// PackInt appends a 64-bit signed integer, big-endian.
func (b *Buffer) PackInt(v int64) {
	b.data = binary.BigEndian.AppendUint64(b.data, uint64(v))
}

// PackBytes appends a length-prefixed byte slice.
func (b *Buffer) PackBytes(p []byte) {
	b.PackInt(int64(len(p)))
	b.data = append(b.data, p...)
}

// unpackInt consumes a 64-bit signed integer: the one field encoding
// every other field is built from. Past the end, or after an error, it
// fails and returns 0.
func (b *Buffer) unpackInt() int64 {
	if b.err != nil {
		return 0
	}
	if b.left() < 8 {
		b.err = errPastEnd
		return 0
	}
	v := int64(binary.BigEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return v
}

// Num packs or unpacks an integer field of any width as a 64-bit integer;
// unpacking converts it to T, truncating as Go's conversions do.
func Num[T ~int | ~int16 | ~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64](b *Buffer, v *T) {
	if b.unpack {
		*v = T(b.unpackInt())
	} else {
		b.PackInt(int64(*v))
	}
}

// Int packs or unpacks an int.
func (b *Buffer) Int(v *int) { Num(b, v) }

// Int64 packs or unpacks a 64-bit signed integer.
func (b *Buffer) Int64(v *int64) { Num(b, v) }

// Uint64 packs or unpacks a 64-bit unsigned integer.
func (b *Buffer) Uint64(v *uint64) { Num(b, v) }

// Float packs or unpacks a float64 as its IEEE-754 bits, so every value
// round-trips bit-exactly.
func (b *Buffer) Float(v *float64) {
	if b.unpack {
		*v = math.Float64frombits(uint64(b.unpackInt()))
	} else {
		b.PackInt(int64(math.Float64bits(*v)))
	}
}

// Bool packs or unpacks a boolean as the integer 1 or 0; any nonzero
// integer unpacks as true.
func (b *Buffer) Bool(v *bool) {
	switch {
	case b.unpack:
		*v = b.unpackInt() != 0
	case *v:
		b.PackInt(1)
	default:
		b.PackInt(0)
	}
}

// Count packs or unpacks a list length. Unpacking, it fails — and sets
// *n to 0 — unless 0 <= *n <= max and the bytes left hold *n elements of
// at least minBytes each, so a hostile count is refused before anything
// is allocated for it.
func (b *Buffer) Count(n *int, max, minBytes int) {
	b.Int(n)
	if !b.unpack {
		return
	}
	if b.err == nil && (*n < 0 || *n > max || *n > b.left()/minBytes) {
		b.fail("count %d out of range (%d bytes left)", *n, b.left())
	}
	if b.err != nil {
		*n = 0
	}
}

// Bytes packs or unpacks a length-prefixed byte slice. The unpacked
// slice aliases the buffer's storage (see the ownership contract in
// pool.go); a receiver that keeps it past the message must copy.
func (b *Buffer) Bytes(p *[]byte) {
	n := len(*p)
	b.Count(&n, math.MaxInt, 1)
	switch {
	case !b.unpack:
		b.data = append(b.data, *p...)
	case b.err != nil:
		*p = nil
	default:
		*p = b.data[b.pos : b.pos+n]
		b.pos += n
	}
}

// String packs or unpacks a length-prefixed string.
func (b *Buffer) String(s *string) {
	if !b.unpack {
		b.PackInt(int64(len(*s)))
		b.data = append(b.data, *s...)
		return
	}
	var p []byte
	b.Bytes(&p)
	*s = string(p)
}

// More reports whether an optional trailing section is on the wire:
// packing, whether the message has it (present); unpacking, whether any
// bytes are left. A section may only trail the fields that are always
// there, and a later section forces the earlier ones present.
func (b *Buffer) More(present bool) bool {
	if b.unpack {
		return b.err == nil && b.left() > 0
	}
	return present
}

// List packs or unpacks the length of *s (see Count); unpacking, it makes
// *s that long, nil when empty. The caller then visits each element.
func List[T any](b *Buffer, s *[]T, max, minBytes int) {
	n := len(*s)
	b.Count(&n, max, minBytes)
	if b.unpack {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// Layout is a message's wire layout. Fields visits the message's fields
// in wire order with the Buffer's field methods; that one method is both
// the packer and the unpacker, so the order is written once. A message
// whose fields can hold values no sane peer sends also has a
// Validate() error method, which Decode runs after unpacking.
type Layout interface {
	Fields(b *Buffer)
}

// Encode packs m and seals it (see Sealed).
func Encode(m Layout) []byte {
	b := GetBuffer()
	defer b.Release()
	m.Fields(b)
	return b.Sealed()
}

// Decode is the one decoder of sealed messages. In order, it opens the
// seal, unpacks m's fields (keeping the first error, bounding every
// count by the bytes left), rejects trailing bytes and runs m's
// Validate, if it has one. Its error names the package and the message,
// as in "fleetd: bad grant: msg: 3 trailing bytes". Whatever it accepts
// re-encodes to a message that decodes to the same value.
func Decode(data []byte, m Layout) error {
	body, err := Open(data)
	if err == nil {
		b := Unpacker(body)
		m.Fields(&b)
		err = b.End()
	}
	if v, ok := m.(interface{ Validate() error }); ok && err == nil {
		err = v.Validate()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", describe(m), err)
	}
	return nil
}

// describe turns a message's type, as in *fleetd.StatsMsg, into the
// prefix of its decode errors, "fleetd: bad stats".
func describe(m Layout) string {
	pkg, name, _ := strings.Cut(strings.TrimPrefix(fmt.Sprintf("%T", m), "*"), ".")
	return pkg + ": bad " + strings.ToLower(strings.TrimSuffix(name, "Msg"))
}
