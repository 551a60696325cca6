package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Span codec: a pixel-aware RLE + back-reference compressor for the RGB
// payloads of dirty-span frame deltas.
//
// A generic compressor (flate, which this codec replaced — see
// EXPERIMENTS.md) buys its ratio with a bit-packed Huffman stage that
// cost ~4x the encode time — on a network of workstations that is
// render budget burned in a generic LZ77. Frame payloads have structure
// a generic byte stream does not:
// they are sequences of 24-bit pixels, flat regions repeat whole pixels
// exactly, and a changed region usually resembles nearby pixels of the
// same payload. The span codec exploits exactly that and nothing else:
//
//   - tokens address pixels, not bytes, so runs and matches never
//     straddle a channel boundary and lengths are 3x smaller;
//   - RLE of the previous pixel covers flat fills;
//   - short back-references (hash-chained over 2-pixel groups) cover
//     repeated texture and the near-vertical coherence of span rows;
//   - everything is emitted byte-aligned — no bit packing, no entropy
//     stage — so both directions run at memcpy-like speed.
//
// Wire format. A stream is a sequence of ops, then (only when the input
// length is not a multiple of 3) the trailing 1–2 raw bytes verbatim.
// Each op starts with a token byte t:
//
//	t&3 == 0 (literal): n pixels follow verbatim (3n bytes)
//	t&3 == 1 (run):     repeat the previous output pixel n times
//	t&3 == 2 (copy):    uvarint distance d (pixels, >= 1) follows;
//	                    copy n pixels starting d pixels back (overlap
//	                    allowed, resolved front to back)
//	t&3 == 3:           invalid, decoders must reject it
//
// with n = (t>>2)+1 for t>>2 < 63, else 64 plus a following uvarint.
// The decoder knows the decoded size exactly (the farm protocol always
// does), so the stream carries no header; SpanDecompress rejects any
// stream that does not decode to exactly that size.

// spanHashBits sizes the encoder's match table: 15 bits of positions
// cover a full frame's 2-pixel groups with few collisions. Smaller
// L1-resident tables were measured slower even for ~20 KiB delta
// payloads (a sparse probe set misses either way, and the extra
// collisions cost false candidates), so one size serves all payloads.
const spanHashBits = 15

// spanSkipShift controls the encoder's skip acceleration: after 2^k
// consecutive literal pixels the probe stride grows by one, so runs of
// incompressible content cost O(n / stride) probes instead of one per
// pixel.
const spanSkipShift = 4

// spanMaxLen caps a single op's pixel count. Generous enough that flat
// frames encode in a handful of ops, small enough that a corrupt
// length cannot overflow arithmetic on any platform.
const spanMaxLen = 1 << 24

// spanEnc is the pooled encoder state. Zeroing its 128 KiB position table
// per call would sit on the farm's encode path, so the table is not
// cleared: an entry holds a byte offset plus the base of the call that
// wrote it, and each call starts with a base past every value an earlier
// call stored. An entry below the current base is stale and reads as 0,
// which is what a fresh table holds, so SpanCompress's bytes are a pure
// function of its input whatever the pool handed it. Only when the base
// would overflow int32 is the table cleared and the base reset.
type spanEnc struct {
	table [1 << spanHashBits]int32
	base  int
}

// begin starts a call over an n-byte payload: after it, base is above
// every stored entry and base+n still fits an entry.
func (e *spanEnc) begin(n int) {
	if e.base+n > math.MaxInt32 {
		clear(e.table[:])
		e.base = 0
	}
}

// at reads the table entry h as an offset into the current payload.
func (e *spanEnc) at(h uint32) int {
	return max(int(e.table[h])-e.base, 0)
}

// set records offset bi in the table entry h.
func (e *spanEnc) set(h uint32, bi int) {
	e.table[h] = int32(bi + e.base)
}

var spanEncPool = sync.Pool{New: func() any { return new(spanEnc) }}

// spanHashV mixes an already-loaded 8-byte group (the top 2 bytes are
// masked off — a group is 6 bytes) into a table index, letting the hot
// loop share one load between hashing and match verification.
func spanHashV(v uint64) uint32 {
	return uint32(((v & 0xFFFF_FFFF_FFFF) * 0x9E3779B185EBCA87) >> (64 - spanHashBits))
}

// pixEq reports whether the 3-byte pixels at byte offsets a and b match.
func pixEq(src []byte, a, b int) bool {
	return src[a] == src[b] && src[a+1] == src[b+1] && src[a+2] == src[b+2]
}

// matchLen returns how many bytes match between the sequences starting
// at byte offsets a and b (a < b), comparing no further than limit.
// Overlapping ranges get sequential compare semantics (src[a+k] vs
// src[b+k] one k at a time), which is exactly what makes a distance-1
// pixel comparison detect periodic runs. Eight-byte XOR compares move
// it at memcpy-like speed; the in-bounds guard is b+l+8 <= limit with
// a < b, so the a-side load stays inside src whenever limit <= len(src).
func matchLen(src []byte, a, b, limit int) int {
	l := 0
	for b+l+8 <= limit {
		x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:])
		if x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for b+l < limit && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// appendUvarint is binary.AppendUvarint without the import weight.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// appendToken emits one op token for n pixels (n >= 1).
func appendToken(dst []byte, op byte, n int) []byte {
	if n <= 63 {
		return append(dst, byte(n-1)<<2|op)
	}
	dst = append(dst, 63<<2|op)
	return appendUvarint(dst, uint64(n-64))
}

const (
	spanOpLit  = 0
	spanOpRun  = 1
	spanOpCopy = 2
)

// SpanCompress appends the span-codec encoding of src to dst (usually a
// reused scratch slice truncated to [:0]) and returns the extended
// slice. It cannot fail and, given dst capacity, does not allocate
// beyond amortised append growth: the match table comes from a pool, and
// the bytes appended depend on src alone (see spanEnc). The output is
// never guaranteed smaller than src — callers keep the raw payload when
// it is not.
func SpanCompress(dst, src []byte) []byte {
	e := spanEncPool.Get().(*spanEnc)
	dst = e.compress(dst, src)
	spanEncPool.Put(e)
	return dst
}

// compress is SpanCompress on encoder state e.
func (e *spanEnc) compress(dst, src []byte) []byte {
	n := len(src) / 3 // whole pixels; the 0–2 byte tail ships verbatim
	pixEnd := n * 3
	probeEnd := len(src) - 8 // last byte offset whose 8-byte hash load fits
	e.begin(len(src))
	// The hot loop works in byte offsets (bi = 3*pixel) so the common
	// path does no pixel<->byte arithmetic; table entries are byte
	// offsets too. There is no separate RLE scan: a flat run is a
	// distance-1 back-reference, its 2-pixel groups are identical and so
	// hash identically, and the emitter below turns distance 1 into the
	// shorter run token — one probe pipeline covers both op kinds.
	litStart := 0 // byte offset of the pending literal run
	fails := 0    // probe misses since the last match, drives skip accel
	bi := 0
	for bi < pixEnd {
		cand := -1
		if bi+3 <= probeEnd {
			// Dual probe: hash the groups at bi and bi+3 together so
			// their load->table->verify chains overlap in the pipeline
			// instead of serialising, and each 8-byte group load is
			// shared between hashing and match verification. All table
			// entries are pixel-aligned byte offsets, so a verified
			// candidate's distance is always whole pixels; the 6-byte
			// verify is one XOR of the loaded groups (cand < bi keeps
			// the cand-side 8-byte load in bounds, since bi+8 is).
			v1 := binary.LittleEndian.Uint64(src[bi:])
			// Distance-1 first: flat content repeats the previous pixel,
			// and finding it here instead of through the table turns the
			// op into a run token (no uvarint) — the table would as
			// likely return some far older copy of the same pixel.
			if bi >= 3 && (binary.LittleEndian.Uint64(src[bi-3:])^v1)<<16 == 0 {
				cand = bi - 3
				e.set(spanHashV(v1), bi)
			} else {
				v2 := binary.LittleEndian.Uint64(src[bi+3:])
				h1 := spanHashV(v1)
				h2 := spanHashV(v2)
				c1 := e.at(h1)
				c2 := e.at(h2)
				e.set(h1, bi)
				e.set(h2, bi+3)
				if c1 < bi &&
					(binary.LittleEndian.Uint64(src[c1:])^v1)<<16 == 0 {
					cand = c1
				} else if c2 < bi+3 &&
					(binary.LittleEndian.Uint64(src[c2:])^v2)<<16 == 0 {
					cand = c2
					bi += 3
				}
			}
		} else if bi <= probeEnd {
			// Tail: too close to the end for the second probe.
			h := spanHashV(binary.LittleEndian.Uint64(src[bi:]))
			if c := e.at(h); c < bi &&
				(binary.LittleEndian.Uint64(src[c:])^binary.LittleEndian.Uint64(src[bi:]))<<16 == 0 {
				cand = c
			}
			e.set(h, bi)
		}
		if cand >= 0 {
			// Whole pixels only: round the byte match length down. Most
			// matches end within their first extension word (rendered
			// content repeats in short bursts), so resolve that word
			// inline and pay the matchLen call only for longer ones.
			var m int
			if bi+14 <= pixEnd {
				if x := binary.LittleEndian.Uint64(src[cand+6:]) ^
					binary.LittleEndian.Uint64(src[bi+6:]); x != 0 {
					m = (6 + bits.TrailingZeros64(x)>>3) / 3 * 3
				} else {
					m = (14 + matchLen(src, cand+14, bi+14, pixEnd)) / 3 * 3
				}
			} else {
				m = (matchLen(src, cand+6, bi+6, pixEnd) + 6) / 3 * 3
			}
			// Extend backwards into the pending literals (the
			// distance bi-cand is unchanged as both ends slide).
			for cand > 0 && bi > litStart && pixEq(src, cand-3, bi-3) {
				cand -= 3
				bi -= 3
				m += 3
			}
			dst = flushLits(dst, src, litStart, bi)
			if dist := (bi - cand) / 3; dist == 1 {
				dst = appendToken(dst, spanOpRun, m/3)
			} else {
				dst = appendToken(dst, spanOpCopy, m/3)
				dst = appendUvarint(dst, uint64(dist))
			}
			// Seed every other pixel the match skips. Sequential hash
			// stores are nearly free next to a probe (no candidate read,
			// no verify), and dense coverage is what later matches are
			// made of: span payloads repeat the same rows many times,
			// and every unseeded pixel is a match the next occurrence
			// cannot find.
			for j, end := bi+6, min(bi+m, probeEnd); j < end; j += 6 {
				e.set(spanHashV(binary.LittleEndian.Uint64(src[j:])), j)
			}
			bi += m
			litStart = bi
			fails = 0
			continue
		}
		// Skip acceleration: the more probes have missed since the last
		// match, the larger the stride to the next one. Incompressible
		// content (rendered texture with no repeats) streams through at
		// a few probes per cache line instead of one per pixel, at a
		// marginal cost in match discovery; any match resets the stride.
		fails++
		bi += 6 + (fails>>spanSkipShift)*3
	}
	dst = flushLits(dst, src, litStart, pixEnd)
	e.base += len(src)
	return append(dst, src[pixEnd:]...)
}

// flushLits emits the pending literal pixels between byte offsets
// [from, to), both pixel-aligned.
func flushLits(dst, src []byte, from, to int) []byte {
	if to <= from {
		return dst
	}
	dst = appendToken(dst, spanOpLit, (to-from)/3)
	return append(dst, src[from:to]...)
}

// SpanDecompress decodes a SpanCompress stream into dst, whose length
// must be exactly the decoded size (the farm protocol always knows it).
// The decoder is total: arbitrary src bytes either fill dst exactly or
// return an error — it never panics, never reads or writes out of
// bounds, and rejects streams that are short, long, or malformed, so a
// corrupt payload can never be delivered as pixels.
func SpanDecompress(dst, src []byte) error {
	n := len(dst) / 3 * 3 // pixel region; the tail is raw
	w := 0                // write offset into dst
	p := 0                // read offset into src
	for w < n {
		if p >= len(src) {
			return fmt.Errorf("msg: span codec: truncated stream at %d/%d bytes", w, n)
		}
		t := src[p]
		p++
		cnt := int(t >> 2)
		if cnt == 63 {
			v, adv := spanUvarint(src, p)
			if adv <= 0 || v > spanMaxLen {
				return fmt.Errorf("msg: span codec: bad extended length")
			}
			p += adv
			cnt = 63 + int(v) // n-1 form, matching the short case
		}
		cnt++ // token stores n-1
		need := cnt * 3
		if need > n-w {
			return fmt.Errorf("msg: span codec: op overruns output (%d pixels, %d bytes left)", cnt, n-w)
		}
		switch t & 3 {
		case spanOpLit:
			if p+need > len(src) {
				return fmt.Errorf("msg: span codec: truncated literal")
			}
			copy(dst[w:w+need], src[p:])
			p += need
		case spanOpRun:
			if w < 3 {
				return fmt.Errorf("msg: span codec: run with no previous pixel")
			}
			fillPattern(dst, w-3, 3, need)
		case spanOpCopy:
			v, adv := spanUvarint(src, p)
			if adv <= 0 || v == 0 || v > uint64(w/3) {
				return fmt.Errorf("msg: span codec: bad copy distance")
			}
			p += adv
			fillPattern(dst, w-int(v)*3, int(v)*3, need)
		default:
			return fmt.Errorf("msg: span codec: invalid op %d", t&3)
		}
		w += need
	}
	if len(src)-p != len(dst)-n {
		return fmt.Errorf("msg: span codec: %d trailing bytes, want %d", len(src)-p, len(dst)-n)
	}
	copy(dst[n:], src[p:])
	return nil
}

// fillPattern copies length bytes into dst at the current end (start +
// period is the write position) from the periodic pattern beginning at
// start, using doubling copies so flat runs move at memcpy speed.
// Preconditions (checked by the caller): start >= 0, the write region
// [start+period, start+period+length) lies inside dst.
func fillPattern(dst []byte, start, period, length int) {
	w := start + period
	// Seed one period, then double what is already materialised.
	copied := copy(dst[w:w+length], dst[start:start+period])
	for copied < length {
		copied += copy(dst[w+copied:w+length], dst[w:w+copied])
	}
}

// spanUvarint is binary.Uvarint with a defensive cap: returns the value
// and the bytes consumed, or adv <= 0 on truncated/oversized input.
func spanUvarint(src []byte, p int) (uint64, int) {
	var v uint64
	for s, adv := uint(0), 1; p < len(src) && adv <= 5; s, adv, p = s+7, adv+1, p+1 {
		b := src[p]
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, adv
		}
	}
	return 0, 0
}
