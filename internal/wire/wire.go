// Package wire is the frame-result codec shared by the farm master,
// workers, and the compositor subsystem: the task wire flags, the
// key-frame/dirty-span-delta frame encoding, and the frame assembly
// that merges results (full or delta) into framebuffers.
//
// It is its own package so that internal/compositor can reassemble the
// exact same wire format without importing the farm (which imports the
// compositor for its in-process sinks).
package wire

import (
	"fmt"
	"math"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// Task wire flags: how a task's frame results are encoded. The master
// sets them in TagTask from its own config — every worker is the same
// build (the hello's protocol version proves it), so nothing is
// negotiated. The bit values are part of the wire format; the gaps are
// retired bits that are never reused.
const (
	// CapDelta: ship dirty-span delta frames after each task's key-frame.
	CapDelta = 1 << 0
	// CapTimeline: ship the worker's timeline events (recv/render/
	// encode/send phase spans, tile spans) piggybacked on frame results.
	CapTimeline = 1 << 2
	// CapSpanCodec: compress frame payloads with the span codec
	// (msg.SpanCompress), the pixel-aware RLE+back-reference encoding.
	CapSpanCodec = 1 << 4
)

// Frame result kinds (FrameDone.Kind).
const (
	// KindFull carries the region's complete pixels: the first frame of
	// every task (the key-frame that reseeds the receiver's copy after
	// any retry, steal, speculation, or truncation), plain-path results,
	// and deltas that tripped the size guard.
	KindFull = iota
	// KindDelta carries only the pixels in Spans; everything else is
	// copied from the receiver's copy of the previous frame.
	KindDelta
)

// Frame payload encodings (FrameDone.Encoding). The ids are part of the
// wire format; 1 was flate, retired with protocol version 2 and never
// reused, so a decoder rejects it like any other unknown id.
const (
	EncRaw  = 0
	EncSpan = 2
)

// SpanOverhead is the wire cost of one span (three packed int64s),
// charged by the delta size guard.
const SpanOverhead = 24

// CompressMin is the smallest payload worth running through the span
// codec: below this the token framing eats the savings.
const CompressMin = 64

// MaxDim bounds task resolution and frame numbers accepted off the
// wire, so a corrupt-but-checksummed message cannot make a receiver
// allocate an absurd framebuffer.
const MaxDim = 1 << 15

// FrameDone is the wire form of one completed frame region.
type FrameDone struct {
	TaskID int
	Frame  int
	Region fb.Rect
	// Kind says whether Pix holds the full region (KindFull) or just
	// the pixels in Spans (KindDelta); Encoding whether it crossed the
	// wire raw or span-coded. Decoded messages always expose Pix as raw
	// pixels — decompression happens in DecodeFrameDone.
	Kind      int
	Encoding  int
	Spans     []fb.Span
	Pix       []byte
	Rendered  int
	Copied    int
	Regs      uint64
	Rays      stats.RayCounters
	ElapsedNs int64
	// Timeline piggyback (CapTimeline): TLNow is the worker's recorder
	// clock at encode time (0 = no timeline; feeds the master's one-way
	// offset estimate) and TLEvents carries the events drained from the
	// worker's recorder since the previous result, tagged with indices
	// into the TLTracks name table.
	TLNow    int64
	TLTracks []string
	TLEvents []TLEvent
	// pooled marks Pix as pool-owned scratch (decompressed payloads);
	// Release returns it once the pixels are merged.
	pooled bool
}

// TLEvent is one shipped timeline event: Track indexes the message's
// TLTracks table.
type TLEvent struct {
	Track int
	Ev    timeline.Event
}

// HasTimeline reports whether the message carries a timeline section.
func (m *FrameDone) HasTimeline() bool {
	return m.TLNow != 0 || len(m.TLTracks) > 0 || len(m.TLEvents) > 0
}

// TLEventBytes is the wire size of one timeline event (six packed
// int64s), bounding decode-side allocation.
const TLEventBytes = 48

// MaxTLTracks bounds the per-message track table: a worker has one
// phase track plus one per tile-pool thread.
const MaxTLTracks = 512

// Release returns pool-owned pixel storage after the receiver has
// merged the frame. Safe to call on any decoded message.
func (m *FrameDone) Release() {
	if m.pooled {
		msg.PutBytes(m.Pix)
		m.Pix = nil
		m.pooled = false
	}
}

// RawPixBytes returns the decompressed payload size the message's kind
// implies: the whole region for key-frames, the span pixels for deltas.
func (m *FrameDone) RawPixBytes() int {
	if m.Kind == KindDelta {
		return fb.SpanArea(m.Spans) * 3
	}
	return m.Region.Area() * 3
}

// Fields is the frame result's wire layout (msg.Layout). Pix is the
// payload as it crosses the wire (span-coded under EncSpan);
// DecodeFrameDone turns it into raw pixels. The kind/encoding/span
// section is omitted for raw key-frames — the plain path's every result
// — saving 24 bytes each; the layout is frozen (TestGalleryBytesPinned
// pins its byte totals). The timeline section trails the span section
// and forces it present.
func (m *FrameDone) Fields(b *msg.Buffer) {
	b.Int(&m.TaskID)
	b.Int(&m.Frame)
	RectFields(b, &m.Region)
	b.Bytes(&m.Pix)
	b.Int(&m.Rendered)
	b.Int(&m.Copied)
	b.Uint64(&m.Regs)
	for k := range m.Rays.ByKind {
		b.Uint64(&m.Rays.ByKind[k])
	}
	b.Int64(&m.ElapsedNs)
	if b.More(m.Kind != KindFull || m.Encoding != EncRaw || m.HasTimeline()) {
		b.Int(&m.Kind)
		b.Int(&m.Encoding)
		msg.List(b, &m.Spans, math.MaxInt, SpanOverhead)
		for i := range m.Spans {
			s := &m.Spans[i]
			b.Int(&s.Y)
			b.Int(&s.X0)
			b.Int(&s.X1)
		}
		if b.More(m.HasTimeline()) {
			TimelineFields(b, &m.TLNow, &m.TLTracks, &m.TLEvents)
		}
	}
}

// RectFields visits a rectangle's four corners, X0, Y0, X1, Y1.
func RectFields(b *msg.Buffer, r *fb.Rect) {
	b.Int(&r.X0)
	b.Int(&r.Y0)
	b.Int(&r.X1)
	b.Int(&r.Y1)
}

// TimelineFields visits a timeline section: the clock stamp, the track
// name table and the events. Shared by the frame result and the DFB
// control ack; ValidateTimeline checks what it unpacked.
func TimelineFields(b *msg.Buffer, now *int64, tracks *[]string, events *[]TLEvent) {
	b.Int64(now)
	msg.List(b, tracks, MaxTLTracks, 8)
	for i := range *tracks {
		b.String(&(*tracks)[i])
	}
	msg.List(b, events, math.MaxInt, TLEventBytes)
	for i := range *events {
		we := &(*events)[i]
		b.Int(&we.Track)
		msg.Num(b, &we.Ev.Op)
		msg.Num(b, &we.Ev.Frame)
		b.Int64(&we.Ev.Start)
		b.Int64(&we.Ev.Dur)
		b.Int64(&we.Ev.Arg)
	}
}

// ValidateTimeline rejects an event that names a track the table lacks.
func ValidateTimeline(tracks []string, events []TLEvent) error {
	for _, we := range events {
		if we.Track < 0 || we.Track >= len(tracks) {
			return fmt.Errorf("timeline event track %d of %d", we.Track, len(tracks))
		}
	}
	return nil
}

// EncodeFrameDone seals a frame result into its wire bytes, in storage
// from the msg byte pool: whoever ends up owning the message — the TCP
// transport once it has written it, the master once it has merged the
// pixels — returns it there (see the msg package's ownership contract).
func EncodeFrameDone(m FrameDone) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	m.Fields(b)
	return b.SealedPooled()
}

// ValidateSpans rejects a span set that is not strictly ordered (rows
// ascending, runs left to right, no overlap) or that leaves the region.
// Ordering is what the encoder produces and what lets the receiver
// apply the payload in one forward pass.
func ValidateSpans(spans []fb.Span, region fb.Rect) error {
	prevY, prevX1 := region.Y0-1, 0
	for _, s := range spans {
		if s.Y < region.Y0 || s.Y >= region.Y1 || s.X0 < region.X0 || s.X0 >= s.X1 || s.X1 > region.X1 {
			return fmt.Errorf("wire: span y=%d [%d,%d) outside region %v", s.Y, s.X0, s.X1, region)
		}
		if s.Y < prevY || (s.Y == prevY && s.X0 < prevX1) {
			return fmt.Errorf("wire: spans out of order at y=%d x=%d", s.Y, s.X0)
		}
		prevY, prevX1 = s.Y, s.X1
	}
	return nil
}

// Validate rejects a frame result no sane worker sends: a region
// outside MaxDim, an unknown kind or encoding, spans on a full frame or
// out of order, a raw payload of the wrong size, or one that would
// decompress past the message size limit.
func (m *FrameDone) Validate() error {
	r := m.Region
	if r.X0 < 0 || r.Y0 < 0 || r.X1 <= r.X0 || r.Y1 <= r.Y0 || r.X1 > MaxDim || r.Y1 > MaxDim {
		return fmt.Errorf("wire: bad frame region %v", r)
	}
	if m.Kind != KindFull && m.Kind != KindDelta {
		return fmt.Errorf("wire: unknown frame kind %d", m.Kind)
	}
	if m.Encoding != EncRaw && m.Encoding != EncSpan {
		return fmt.Errorf("wire: unknown frame encoding %d", m.Encoding)
	}
	if m.Kind == KindFull && len(m.Spans) != 0 {
		return fmt.Errorf("wire: full frame with %d spans", len(m.Spans))
	}
	if err := ValidateSpans(m.Spans, m.Region); err != nil {
		return err
	}
	if err := ValidateTimeline(m.TLTracks, m.TLEvents); err != nil {
		return err
	}
	want := m.RawPixBytes()
	if want > msg.MaxMessageSize {
		// A corrupt-but-checksummed header must not drive a huge
		// decompression allocation.
		return fmt.Errorf("wire: frame payload of %d bytes exceeds limit", want)
	}
	if m.Encoding == EncRaw && len(m.Pix) != want {
		return fmt.Errorf("wire: frame payload is %d bytes, want %d", len(m.Pix), want)
	}
	return nil
}

// DecodeFrameDone parses and validates a frame result by msg.Decode's
// rules, on a buffer that stays on the stack: the frame-result path
// allocates nothing. The returned Pix either aliases data (raw payloads;
// Recv hands the receiver sole ownership of the message bytes) or is
// pool-owned scratch (span-coded payloads) that Release returns.
func DecodeFrameDone(data []byte) (FrameDone, error) {
	var m FrameDone
	body, err := msg.Open(data)
	if err == nil {
		b := msg.Unpacker(body)
		m.Fields(&b)
		err = b.End()
	}
	if err == nil {
		err = m.Validate()
	}
	if err == nil && m.Encoding == EncSpan {
		err = m.decompress()
	}
	if err != nil {
		return FrameDone{}, fmt.Errorf("wire: bad frame-done message: %w", err)
	}
	return m, nil
}

// decompress replaces a span-coded payload with its raw pixels in pool
// storage.
func (m *FrameDone) decompress() error {
	dst := msg.GetBytes(m.RawPixBytes())
	if err := msg.SpanDecompress(dst, m.Pix); err != nil {
		msg.PutBytes(dst)
		return err
	}
	// Full-region span payloads carry the vertically filtered residual;
	// the stride comes from the region header, exactly as the encoder
	// derived it.
	if m.Kind == KindFull {
		if stride := FilterStride(m.Region); stride > 0 {
			msg.SpanUnfilterUp(dst, stride)
		}
	}
	m.Pix = dst
	m.pooled = true
	return nil
}

// Encoder builds frame-result payloads, choosing between key-frame and
// delta encoding and applying the span codec when asked. Its scratch
// slices are reused across frames, so the worker's hot loop (and the
// virtual driver modelling it) allocates only the final sealed message.
// It reads no clock: identical inputs always encode to identical bytes.
type Encoder struct {
	pix  []byte // span (or whole-frame region) pixel extraction scratch
	z    []byte // span codec output scratch
	filt []byte // span codec input: the filtered payload residual
}

// Encode fills fd's Kind/Encoding/Spans/Pix from the rendered frame and
// returns the sealed wire bytes. spans is the coherence engine's
// traced-pixel set for this frame (nil on the plain path); first marks
// the first frame of a task, which is always a key-frame so the
// receiver can reseed its copy after any retry, steal, or truncation.
// flags is the task's wire flags. buf may hold the whole frame or, as a
// farm task's does, exactly fd.Region: then a key-frame's raw pixels are
// buf's own bytes, not a copy.
func (we *Encoder) Encode(fd *FrameDone, buf *fb.Framebuffer, flags int, spans []fb.Span, first bool) []byte {
	fd.Kind, fd.Encoding, fd.Spans = KindFull, EncRaw, nil
	if flags&CapDelta != 0 && spans != nil && !first {
		// Size guard: a delta only pays if its pixels plus span overhead
		// undercut ~60% of the full region; otherwise ship a key-frame.
		rawFull := fd.Region.Area() * 3
		rawDelta := fb.SpanArea(spans)*3 + SpanOverhead*len(spans)
		if rawDelta*10 <= rawFull*6 {
			fd.Kind = KindDelta
			fd.Spans = spans
		}
	}
	var payload []byte
	switch {
	case fd.Kind == KindDelta:
		we.pix = buf.AppendSpans(we.pix[:0], fd.Spans)
		payload = we.pix
	case buf.Bounds() == fd.Region:
		payload = buf.Pix
	default:
		we.pix = AppendRegion(we.pix[:0], buf, fd.Region)
		payload = we.pix
	}
	if flags&CapSpanCodec != 0 && len(payload) >= CompressMin {
		we.z = msg.SpanCompress(we.z[:0], we.spanInput(fd, payload))
		if len(we.z) < len(payload) {
			payload = we.z
			fd.Encoding = EncSpan
		}
	}
	fd.Pix = payload
	return EncodeFrameDone(*fd)
}

// spanInput returns the bytes the span codec encodes for this frame:
// the payload's filter residual (the vertical up-predictor for full
// frames, the span-segment predictor for deltas) when a filter applies,
// the payload itself otherwise. The residual lives in persistent
// encoder scratch.
func (we *Encoder) spanInput(fd *FrameDone, payload []byte) []byte {
	if fd.Kind != KindFull {
		// Delta payloads ship unfiltered: their vertical coherence sits
		// at near-constant back-distances (consecutive spans of similar
		// width), which the codec's match table already captures — a
		// span-segment up-predictor was measured to cost a pass and
		// save nothing (EXPERIMENTS.md).
		return payload
	}
	stride := FilterStride(fd.Region)
	if stride == 0 {
		return payload
	}
	we.filt = growBytes(we.filt, len(payload))
	msg.SpanFilterUp(we.filt, payload, stride)
	return we.filt
}

// growBytes resizes reusable scratch to exactly n bytes.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// FilterStride returns the row stride the span codec's vertical filter
// (msg.SpanFilterUp) uses for a full-region payload, or 0 when the
// filter does not apply (a single row, or rows too narrow for the
// word-chunked filter loops). Encoder and decoder both derive it from
// the region header, so the choice costs no wire bit: a full-frame
// span-codec payload is always the filtered residual when this is
// non-zero.
func FilterStride(region fb.Rect) int {
	if s := region.W() * 3; msg.SpanFilterApplies(region.Area()*3, s) {
		return s
	}
	return 0
}

// AppendRegion packs a region of img into RGB bytes (the wire format of
// full frame results), appending to out so hot paths can reuse scratch.
func AppendRegion(out []byte, img *fb.Framebuffer, region fb.Rect) []byte {
	n := len(out)
	out = append(out, make([]byte, region.Area()*3)...)
	fb.Wrap(region, out[n:]).CopyRect(img, region)
	return out
}

// ExtractRegion packs a region of img into a fresh RGB byte slice.
func ExtractRegion(img *fb.Framebuffer, region fb.Rect) []byte {
	return AppendRegion(make([]byte, 0, region.Area()*3), img, region)
}
