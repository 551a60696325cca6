package tga

import (
	"image"
	"image/color"
	"image/png"
	"io"
	"os"

	"nowrender/internal/fb"
)

// frameImage adapts a Framebuffer to the standard image.Image interface
// so frames interoperate with the image ecosystem (PNG encoding below,
// or any stdlib-compatible consumer).
type frameImage struct {
	f *fb.Framebuffer
}

// ToImage wraps a framebuffer as an image.Image (no copy).
func ToImage(f *fb.Framebuffer) image.Image { return frameImage{f: f} }

// ColorModel implements image.Image.
func (fi frameImage) ColorModel() color.Model { return color.RGBAModel }

// Bounds implements image.Image.
func (fi frameImage) Bounds() image.Rectangle {
	b := fi.f.Bounds()
	return image.Rect(b.X0, b.Y0, b.X1, b.Y1)
}

// At implements image.Image: the zero colour outside Bounds, as
// image.RGBA answers.
func (fi frameImage) At(x, y int) color.Color {
	if !fi.f.Bounds().Contains(x, y) {
		return color.RGBA{}
	}
	r, g, b := fi.f.At(x, y)
	return color.RGBA{R: r, G: g, B: b, A: 0xFF}
}

// FromImage copies any image.Image into a framebuffer, quantising to
// 24-bit RGB.
func FromImage(img image.Image) *fb.Framebuffer {
	b := img.Bounds()
	out := fb.New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.SetRGB(x, y, byte(r>>8), byte(g>>8), byte(bl>>8))
		}
	}
	return out
}

// EncodePNG writes img as PNG via the stdlib encoder.
func EncodePNG(w io.Writer, img *fb.Framebuffer) error {
	return png.Encode(w, ToImage(img))
}

// DecodePNG reads a PNG into a framebuffer.
func DecodePNG(r io.Reader) (*fb.Framebuffer, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, err
	}
	return FromImage(img), nil
}

// WriteFilePNG encodes img to path as PNG.
func WriteFilePNG(path string, img *fb.Framebuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodePNG(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
