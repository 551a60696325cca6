// Package fb provides the 24-bit RGB framebuffer frames are rendered
// into, and the pixel rectangles the partitioning schemes hand to
// workers. Colours are quantised to 8 bits per channel on Set, which is
// what makes "pixel-identical" a meaningful, exact property in the
// coherence tests (the paper's output format is 24-bit targa).
package fb

import (
	"fmt"

	vm "nowrender/internal/vecmath"
)

// Framebuffer is a W x H image with 8-bit RGB pixels covering the
// rectangle Bounds() of a frame: a whole frame has its origin (X0, Y0)
// at (0, 0), a region of one (NewRegion) holds only the region's pixels.
// Set, At and the span and rectangle copies take frame coordinates
// either way, so a worker that owns one block of every frame holds a
// block, not a frame.
type Framebuffer struct {
	W, H int
	// X0, Y0 are the frame coordinates of pixel Pix[0:3].
	X0, Y0 int
	// Pix is packed RGB, 3 bytes per pixel, rows top to bottom.
	Pix []byte
}

// New returns a black framebuffer.
func New(w, h int) *Framebuffer {
	return NewRegion(NewRect(0, 0, w, h))
}

// NewRegion returns a black framebuffer over rectangle r of a frame.
func NewRegion(r Rect) *Framebuffer {
	if r.W() < 0 || r.H() < 0 {
		panic(fmt.Sprintf("fb: negative dimensions %dx%d", r.W(), r.H()))
	}
	return Wrap(r, make([]byte, r.Area()*3))
}

// Wrap returns a framebuffer over rectangle r whose pixels are pix, r's
// packed RGB rows (the wire's full-region payload), without copying, so
// a payload can be copied in or out by row span.
func Wrap(r Rect, pix []byte) *Framebuffer {
	return &Framebuffer{W: r.W(), H: r.H(), X0: r.X0, Y0: r.Y0, Pix: pix}
}

// Clone returns a deep copy.
func (f *Framebuffer) Clone() *Framebuffer {
	c := NewRegion(f.Bounds())
	copy(c.Pix, f.Pix)
	return c
}

// offset returns the byte offset of pixel (x, y).
func (f *Framebuffer) offset(x, y int) int { return ((y-f.Y0)*f.W + x - f.X0) * 3 }

// checkBounds panics with the offending coordinates when (x, y) lies
// outside the framebuffer. Raw slice indexing would not catch (W, y),
// which lands on the next row's first pixel, and panics on a byte offset
// otherwise — useless when a tile rectangle is off by one; this names
// the pixel.
func (f *Framebuffer) checkBounds(x, y int) {
	if !f.Bounds().Contains(x, y) {
		panic(fmt.Sprintf("fb: pixel (%d,%d) outside %dx%d framebuffer at (%d,%d)", x, y, f.W, f.H, f.X0, f.Y0))
	}
}

// Set writes a linear colour, clamping and quantising to 8 bits. Panics
// if (x, y) is out of bounds. Concurrent Set calls on distinct pixels
// are safe; the same pixel must not be written concurrently.
func (f *Framebuffer) Set(x, y int, c vm.Vec3) {
	f.checkBounds(x, y)
	o := f.offset(x, y)
	cc := c.Clamp01()
	f.Pix[o+0] = byte(cc.X*255 + 0.5)
	f.Pix[o+1] = byte(cc.Y*255 + 0.5)
	f.Pix[o+2] = byte(cc.Z*255 + 0.5)
}

// SetRGB writes raw bytes. Panics if (x, y) is out of bounds.
func (f *Framebuffer) SetRGB(x, y int, r, g, b byte) {
	f.checkBounds(x, y)
	o := f.offset(x, y)
	f.Pix[o+0], f.Pix[o+1], f.Pix[o+2] = r, g, b
}

// At returns the raw bytes of pixel (x, y). Panics if (x, y) is out of
// bounds.
func (f *Framebuffer) At(x, y int) (r, g, b byte) {
	f.checkBounds(x, y)
	o := f.offset(x, y)
	return f.Pix[o+0], f.Pix[o+1], f.Pix[o+2]
}

// AtColor returns pixel (x, y) as a linear [0,1] colour.
func (f *Framebuffer) AtColor(x, y int) vm.Vec3 {
	r, g, b := f.At(x, y)
	return vm.V(float64(r)/255, float64(g)/255, float64(b)/255)
}

// CopyRect copies a rectangle of pixels from src, row by row; r is in
// frame coordinates and must lie inside both framebuffers.
func (f *Framebuffer) CopyRect(src *Framebuffer, r Rect) {
	for y := r.Y0; y < r.Y1; y++ {
		o := f.offset(r.X0, y)
		so := src.offset(r.X0, y)
		n := (r.X1 - r.X0) * 3
		copy(f.Pix[o:o+n], src.Pix[so:so+n])
	}
}

// Fill sets every pixel to colour c.
func (f *Framebuffer) Fill(c vm.Vec3) {
	for y := f.Y0; y < f.Y0+f.H; y++ {
		for x := f.X0; x < f.X0+f.W; x++ {
			f.Set(x, y, c)
		}
	}
}

// Equal reports whether two framebuffers cover the same rectangle with
// identical pixels.
func (f *Framebuffer) Equal(o *Framebuffer) bool {
	if f.Bounds() != o.Bounds() {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// DiffCount returns the number of pixels differing between f and o, which
// must have equal dimensions.
func (f *Framebuffer) DiffCount(o *Framebuffer) int {
	n := 0
	for i := 0; i+2 < len(f.Pix); i += 3 {
		if f.Pix[i] != o.Pix[i] || f.Pix[i+1] != o.Pix[i+1] || f.Pix[i+2] != o.Pix[i+2] {
			n++
		}
	}
	return n
}

// Bounds returns the rectangle of the frame the framebuffer covers.
func (f *Framebuffer) Bounds() Rect { return Rect{X0: f.X0, Y0: f.Y0, X1: f.X0 + f.W, Y1: f.Y0 + f.H} }

// Rect is a half-open pixel rectangle [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// NewRect returns the rectangle with the given corners.
func NewRect(x0, y0, x1, y1 int) Rect { return Rect{x0, y0, x1, y1} }

// W returns the rectangle width.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the pixel count.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether pixel (x, y) lies inside.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the overlap of two rectangles (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: max(r.X0, o.X0), Y0: max(r.Y0, o.Y0),
		X1: min(r.X1, o.X1), Y1: min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether the rectangles share any pixel.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

// SplitH splits the rectangle into two halves along its longer axis,
// used by the adaptive subdivision of frame regions. A rectangle of area
// 1 returns itself and an empty rect.
func (r Rect) Split() (Rect, Rect) {
	if r.W() >= r.H() {
		if r.W() < 2 {
			return r, Rect{}
		}
		mid := r.X0 + r.W()/2
		return Rect{r.X0, r.Y0, mid, r.Y1}, Rect{mid, r.Y0, r.X1, r.Y1}
	}
	if r.H() < 2 {
		return r, Rect{}
	}
	mid := r.Y0 + r.H()/2
	return Rect{r.X0, r.Y0, r.X1, mid}, Rect{r.X0, mid, r.X1, r.Y1}
}

// Blocks tiles the rectangle with bw x bh blocks (last row/column may be
// smaller), the decomposition the paper uses with 80x80 subareas.
func (r Rect) Blocks(bw, bh int) []Rect {
	if bw < 1 || bh < 1 {
		panic("fb: non-positive block size")
	}
	var out []Rect
	for y := r.Y0; y < r.Y1; y += bh {
		for x := r.X0; x < r.X1; x += bw {
			out = append(out, Rect{
				X0: x, Y0: y,
				X1: min(x+bw, r.X1), Y1: min(y+bh, r.Y1),
			})
		}
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}
