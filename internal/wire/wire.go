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

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
	vm "nowrender/internal/vecmath"
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

// PackTL appends a timeline section (clock stamp, track name table,
// events) to a payload under construction. Shared by the frame-done
// codec and the DFB control acks.
func PackTL(b *msg.Buffer, now int64, tracks []string, events []TLEvent) {
	b.PackInt(now)
	b.PackInt(int64(len(tracks)))
	for _, name := range tracks {
		b.PackString(name)
	}
	b.PackInt(int64(len(events)))
	for _, we := range events {
		b.PackInt(int64(we.Track))
		b.PackInt(int64(we.Ev.Op))
		b.PackInt(int64(we.Ev.Frame))
		b.PackInt(we.Ev.Start)
		b.PackInt(we.Ev.Dur)
		b.PackInt(we.Ev.Arg)
	}
}

// UnpackTL reads a timeline section written by PackTL, bounding the
// track and event counts against the remaining payload.
func UnpackTL(b *msg.Buffer) (now int64, tracks []string, events []TLEvent, err error) {
	now = b.UnpackInt()
	nt := int(b.UnpackInt())
	if nt < 0 || nt > MaxTLTracks || nt > b.Len()/8 {
		return 0, nil, nil, fmt.Errorf("wire: bad timeline track count %d", nt)
	}
	tracks = make([]string, nt)
	for i := range tracks {
		tracks[i] = b.UnpackString()
	}
	ne := int(b.UnpackInt())
	if ne < 0 || ne > b.Len()/TLEventBytes {
		return 0, nil, nil, fmt.Errorf("wire: bad timeline event count %d", ne)
	}
	events = make([]TLEvent, ne)
	for i := range events {
		we := TLEvent{Track: int(b.UnpackInt())}
		we.Ev.Op = timeline.Op(b.UnpackInt())
		we.Ev.Frame = int32(b.UnpackInt())
		we.Ev.Start = b.UnpackInt()
		we.Ev.Dur = b.UnpackInt()
		we.Ev.Arg = b.UnpackInt()
		if we.Track < 0 || we.Track >= nt {
			return 0, nil, nil, fmt.Errorf("wire: timeline event track %d of %d", we.Track, nt)
		}
		events[i] = we
	}
	return now, tracks, events, nil
}

// EncodeFrameDone seals a frame result into its wire bytes, in storage
// from the msg byte pool: whoever ends up owning the message — the TCP
// transport once it has written it, the master once it has merged the
// pixels — returns it there (see the msg package's ownership contract).
func EncodeFrameDone(m FrameDone) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(m.TaskID))
	b.PackInt(int64(m.Frame))
	b.PackInt(int64(m.Region.X0))
	b.PackInt(int64(m.Region.Y0))
	b.PackInt(int64(m.Region.X1))
	b.PackInt(int64(m.Region.Y1))
	b.PackBytes(m.Pix)
	b.PackInt(int64(m.Rendered))
	b.PackInt(int64(m.Copied))
	b.PackInt(int64(m.Regs))
	for k := 0; k < vm.NumRayKinds; k++ {
		b.PackInt(int64(m.Rays.ByKind[k]))
	}
	b.PackInt(m.ElapsedNs)
	// The kind/encoding/span section is omitted for raw key-frames —
	// the plain path's every result — saving 24 bytes each; the layout is
	// frozen (TestGalleryBytesPinned pins its byte totals). The timeline
	// section trails the span section and forces it present, since the
	// decoder reads them in order.
	if m.Kind != KindFull || m.Encoding != EncRaw || m.HasTimeline() {
		b.PackInt(int64(m.Kind))
		b.PackInt(int64(m.Encoding))
		b.PackInt(int64(len(m.Spans)))
		for _, s := range m.Spans {
			b.PackInt(int64(s.Y))
			b.PackInt(int64(s.X0))
			b.PackInt(int64(s.X1))
		}
		if m.HasTimeline() {
			PackTL(b, m.TLNow, m.TLTracks, m.TLEvents)
		}
	}
	body := b.Bytes()
	out := msg.GetBytes(len(body) + 4)
	copy(out, body)
	return msg.Seal(out[:len(body)])
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

// DecodeFrameDone parses and validates a frame result. The returned
// Pix either aliases data (raw payloads) or is pool-owned scratch
// (span-coded payloads) that Release returns.
func DecodeFrameDone(data []byte) (FrameDone, error) {
	body, err := msg.Open(data)
	if err != nil {
		return FrameDone{}, fmt.Errorf("wire: bad frame-done message: %w", err)
	}
	b := msg.FromBytes(body)
	var m FrameDone
	m.TaskID = int(b.UnpackInt())
	m.Frame = int(b.UnpackInt())
	x0 := int(b.UnpackInt())
	y0 := int(b.UnpackInt())
	x1 := int(b.UnpackInt())
	y1 := int(b.UnpackInt())
	m.Region = fb.NewRect(x0, y0, x1, y1)
	// The payload aliases data rather than being copied: Recv hands the
	// receiver sole ownership of the message bytes (see the msg package's
	// buffer ownership contract), so the decoded view stays valid until
	// the receiver drops the message.
	pix := b.UnpackBytes()
	m.Rendered = int(b.UnpackInt())
	m.Copied = int(b.UnpackInt())
	m.Regs = uint64(b.UnpackInt())
	for k := 0; k < vm.NumRayKinds; k++ {
		m.Rays.ByKind[k] = uint64(b.UnpackInt())
	}
	m.ElapsedNs = b.UnpackInt()
	if b.Len() > 0 {
		m.Kind = int(b.UnpackInt())
		m.Encoding = int(b.UnpackInt())
		n := int(b.UnpackInt())
		if n < 0 || n > b.Len()/SpanOverhead {
			return FrameDone{}, fmt.Errorf("wire: bad span count %d", n)
		}
		m.Spans = make([]fb.Span, n)
		for i := range m.Spans {
			m.Spans[i] = fb.Span{Y: int(b.UnpackInt()), X0: int(b.UnpackInt()), X1: int(b.UnpackInt())}
		}
		if b.Len() > 0 {
			// Timeline piggyback (CapTimeline tasks only).
			m.TLNow, m.TLTracks, m.TLEvents, err = UnpackTL(b)
			if err != nil {
				return FrameDone{}, err
			}
		}
	}
	if err := b.Err(); err != nil {
		return FrameDone{}, fmt.Errorf("wire: bad frame-done message: %w", err)
	}
	if b.Len() != 0 {
		return FrameDone{}, fmt.Errorf("wire: %d trailing bytes in frame-done message", b.Len())
	}
	r := m.Region
	if r.X0 < 0 || r.Y0 < 0 || r.X1 <= r.X0 || r.Y1 <= r.Y0 || r.X1 > MaxDim || r.Y1 > MaxDim {
		return FrameDone{}, fmt.Errorf("wire: bad frame region %v", r)
	}
	if m.Kind != KindFull && m.Kind != KindDelta {
		return FrameDone{}, fmt.Errorf("wire: unknown frame kind %d", m.Kind)
	}
	if m.Encoding != EncRaw && m.Encoding != EncSpan {
		return FrameDone{}, fmt.Errorf("wire: unknown frame encoding %d", m.Encoding)
	}
	if m.Kind == KindFull && len(m.Spans) != 0 {
		return FrameDone{}, fmt.Errorf("wire: full frame with %d spans", len(m.Spans))
	}
	if err := ValidateSpans(m.Spans, m.Region); err != nil {
		return FrameDone{}, err
	}
	want := m.RawPixBytes()
	if want > msg.MaxMessageSize {
		// A corrupt-but-checksummed header must not drive a huge
		// decompression allocation.
		return FrameDone{}, fmt.Errorf("wire: frame payload of %d bytes exceeds limit", want)
	}
	switch m.Encoding {
	case EncRaw:
		if len(pix) != want {
			return FrameDone{}, fmt.Errorf("wire: frame payload is %d bytes, want %d", len(pix), want)
		}
		m.Pix = pix
	case EncSpan:
		dst := msg.GetBytes(want)
		if err := msg.SpanDecompress(dst, pix); err != nil {
			msg.PutBytes(dst)
			return FrameDone{}, fmt.Errorf("wire: bad frame-done message: %w", err)
		}
		// Full-region span payloads carry the vertically filtered
		// residual; the stride comes from the region header, exactly as
		// the encoder derived it.
		if m.Kind == KindFull {
			if stride := FilterStride(m.Region); stride > 0 {
				msg.SpanUnfilterUp(dst, stride)
			}
		}
		m.Pix = dst
		m.pooled = true
	}
	return m, nil
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
