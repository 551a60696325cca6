package fb

import "fmt"

// Span is a horizontal run of pixels [X0, X1) on row Y — the unit of
// the farm's delta frames. A worker whose coherence engine re-rendered
// 2% of a region ships just those pixels as spans instead of the whole
// rectangle.
type Span struct {
	Y, X0, X1 int
}

// Area returns the span's pixel count.
func (s Span) Area() int { return s.X1 - s.X0 }

// SpanArea sums the pixel counts of a span set.
func SpanArea(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += s.Area()
	}
	return n
}

// AppendSpans packs the spans' pixels (3 bytes each, span order) onto
// out and returns the extended slice — the encode side of ApplySpans.
// Spans must lie inside the framebuffer.
func (f *Framebuffer) AppendSpans(out []byte, spans []Span) []byte {
	for _, s := range spans {
		o := f.offset(s.X0, s.Y)
		out = append(out, f.Pix[o:o+s.Area()*3]...)
	}
	return out
}

// ApplySpans writes packed RGB pixels into the spans, consuming
// 3*(X1-X0) bytes per span in order. Spans and pixel data arrive off
// the wire, so violations are errors, not panics: a span outside the
// framebuffer or a pixel count that does not match len(pix)/3 leaves f
// partially written and returns a description of the offence.
func (f *Framebuffer) ApplySpans(spans []Span, pix []byte) error {
	pos := 0
	for _, s := range spans {
		if b := f.Bounds(); s.X0 < b.X0 || s.X0 >= s.X1 || s.X1 > b.X1 || s.Y < b.Y0 || s.Y >= b.Y1 {
			return fmt.Errorf("fb: span y=%d [%d,%d) outside framebuffer %v", s.Y, s.X0, s.X1, b)
		}
		n := s.Area() * 3
		if pos+n > len(pix) {
			return fmt.Errorf("fb: span pixels exhausted at %d of %d bytes", pos, len(pix))
		}
		o := f.offset(s.X0, s.Y)
		copy(f.Pix[o:o+n], pix[pos:pos+n])
		pos += n
	}
	if pos != len(pix) {
		return fmt.Errorf("fb: %d span pixel bytes left over", len(pix)-pos)
	}
	return nil
}
