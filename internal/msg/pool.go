package msg

import (
	"math/bits"
	"sync"
)

// Buffer ownership contract
//
// The farm's receive loops are hot paths: a frame result arrives for
// every (frame, region) pair, and naive per-message allocation turns the
// master into a garbage factory. The pools below let encoders and
// decoders reuse storage, which is only safe because ownership of a
// payload is handed off exactly once along the pipeline:
//
//   - Send transfers ownership of Message.Data to the transport. After
//     Send returns, the sender must not read, modify or resend the
//     slice: the in-process pipe passes it by reference to the peer, and
//     the TCP transport returns it to the byte pool (PutBytes) once its
//     writev is done. A Send that fails keeps nothing, so its sender may
//     route the same bytes elsewhere (a worker whose sink is unreachable
//     hands the result to the master).
//   - Recv transfers ownership of Message.Data to the receiver. Both
//     transports deliver a slice nobody else retains — TCP reads it into
//     storage from the byte pool — so decoders may alias it (Open,
//     Buffer.Bytes) instead of copying; the decoded view is valid until
//     the receiver drops the message or returns it to the pool.
//
// Frame results are the one message whose storage goes round: the
// encoder seals it into pool storage (GetBytes), and the master returns
// it (PutBytes) once the pixels are merged, or the TCP transport once it
// has sent it. Every other message is sealed with (*Buffer).Sealed into
// exact-size storage no pool has handed out; a TCP send recycles that
// too, and a receiver simply drops it. Intermediate buffers — pack
// scratch, compression scratch, decompressed pixel buffers — never cross
// the transport and are pooled freely via GetBuffer/Release and
// GetBytes/PutBytes. Under the race detector PutBytes overwrites what it
// recycles, so a read after the hand-back changes pixels and the goldens
// fail.

// bufferPool recycles pack/unpack buffers between messages.
var bufferPool = sync.Pool{
	New: func() any { return &Buffer{} },
}

// GetBuffer returns an empty Buffer from the pool, ready for packing.
// Release it when the packed bytes are no longer needed.
func GetBuffer() *Buffer {
	return bufferPool.Get().(*Buffer)
}

// Release resets the buffer and returns it to the pool. The caller must
// not use the buffer afterwards. Slices produced by Sealed and
// SealedPooled are safe: they never alias the buffer's storage.
func (b *Buffer) Release() {
	*b = Buffer{data: b.data[:0]}
	bufferPool.Put(b)
}

// Sealed returns the packed contents with a CRC-32 footer appended, in a
// freshly allocated exact-size slice. The result never aliases the
// buffer, so it is safe to hand to Send while the buffer itself is
// Released back to the pool.
func (b *Buffer) Sealed() []byte {
	return Seal(append(make([]byte, 0, len(b.data)+4), b.data...))
}

// SealedPooled is Sealed into storage from GetBytes, for the one message
// whose storage goes round: a frame result (see the contract above).
func (b *Buffer) SealedPooled() []byte {
	out := GetBytes(len(b.data) + 4)
	copy(out, b.data)
	return Seal(out[:len(b.data)])
}

// Byte storage is pooled by size class: class c holds slices of
// capacity at least 1<<c, from minClass (smaller requests are served
// from it) to maxClass, which holds MaxMessageSize. A free slice waits
// in a holder, a *[]byte, so that neither Get nor Put converts a fresh
// pointer to an interface: Get moves the holder it is handed to
// holders, and Put takes one from there.
const (
	minClass = 6
	maxClass = 26
)

var (
	byteClasses [maxClass + 1]sync.Pool
	holders     = sync.Pool{New: func() any { return new([]byte) }}
)

// scribble is set in race-detector builds (race.go): PutBytes then
// overwrites the storage it recycles.
var scribble bool

// GetBytes returns a byte slice of length n from the pool (capacity
// rounded up to its size class). Contents are unspecified; the caller
// must overwrite them.
func GetBytes(n int) []byte {
	c := minClass
	if n > 1<<minClass {
		c = bits.Len(uint(n - 1))
	}
	if c > maxClass {
		return make([]byte, n)
	}
	h, _ := byteClasses[c].Get().(*[]byte)
	if h == nil {
		return make([]byte, n, 1<<c)
	}
	p := *h
	*h = nil
	holders.Put(h)
	return p[:n]
}

// PutBytes returns p's storage to the pool: a slice from GetBytes, or
// one whose ownership the caller holds outright (a received message).
// The caller must not use p afterwards.
func PutBytes(p []byte) {
	if cap(p) < 1<<minClass {
		return
	}
	p = p[:cap(p)]
	if scribble {
		for i := range p {
			p[i] = 0xA5
		}
	}
	h := holders.Get().(*[]byte)
	*h = p
	byteClasses[min(bits.Len(uint(cap(p)))-1, maxClass)].Put(h)
}
