package tga

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/color"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowrender/internal/fb"
	vm "nowrender/internal/vecmath"
)

func gradientImage(w, h int) *fb.Framebuffer {
	img := fb.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGB(x, y, byte(x*7%256), byte(y*13%256), byte((x+y)%256))
		}
	}
	return img
}

func TestTGARoundTrip(t *testing.T) {
	img := gradientImage(33, 17)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("TGA round trip not identical")
	}
}

// referenceEncode is the row-by-row encoder Encode replaced, kept as the
// independent statement of the format: the benchmark's TGA oracle is
// built with Encode itself, so only the comparison below pins the bytes.
func referenceEncode(w io.Writer, img *fb.Framebuffer) error {
	if img.W > 0xFFFF || img.H > 0xFFFF {
		return fmt.Errorf("tga: image %dx%d exceeds format limits", img.W, img.H)
	}
	bw := bufio.NewWriter(w)
	var hd [18]byte
	hd[2] = 2 // uncompressed truecolor
	hd[12] = byte(img.W)
	hd[13] = byte(img.W >> 8)
	hd[14] = byte(img.H)
	hd[15] = byte(img.H >> 8)
	hd[16] = 24   // bits per pixel
	hd[17] = 0x20 // top-left origin
	if _, err := bw.Write(hd[:]); err != nil {
		return err
	}
	row := make([]byte, img.W*3)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			r, g, b := img.At(x, y)
			row[x*3+0] = b
			row[x*3+1] = g
			row[x*3+2] = r
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// countingWriter records how its input was chunked.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestEncodeMatchesReference: Encode is byte-identical to the row-by-row
// reference on degenerate, thin, odd-width and frame-sized images, and
// hands the writer the whole file in one Write.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range [][2]int{{0, 0}, {1, 1}, {1, 9}, {9, 1}, {33, 17}, {120, 160}} {
		img := fb.New(d[0], d[1])
		rng.Read(img.Pix)
		orig := append([]byte(nil), img.Pix...)
		var want bytes.Buffer
		if err := referenceEncode(&want, img); err != nil {
			t.Fatal(err)
		}
		var got countingWriter
		if err := Encode(&got, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%dx%d: Encode differs from the reference encoder", d[0], d[1])
		}
		if got.Len() != 18+3*d[0]*d[1] || got.writes != 1 {
			t.Errorf("%dx%d: %d bytes in %d writes, want %d in 1", d[0], d[1], got.Len(), got.writes, 18+3*d[0]*d[1])
		}
		if !bytes.Equal(img.Pix, orig) {
			t.Errorf("%dx%d: Encode modified the framebuffer", d[0], d[1])
		}
	}
}

// TestEncodeRefusesOversize: 16-bit header fields cannot hold a side
// past 65535, and nothing may be written for such an image.
func TestEncodeRefusesOversize(t *testing.T) {
	for _, d := range [][2]int{{65536, 1}, {1, 65536}} {
		var got countingWriter
		if err := Encode(&got, fb.New(d[0], d[1])); err == nil || got.writes != 0 {
			t.Errorf("%dx%d: err=%v after %d writes, want a refusal and no output", d[0], d[1], err, got.writes)
		}
	}
	if err := Encode(io.Discard, fb.New(65535, 1)); err != nil {
		t.Errorf("65535x1 refused: %v", err)
	}
}

// BenchmarkEncode is the per-frame cost at the benchmark's frame size.
func BenchmarkEncode(b *testing.B) {
	img := fb.New(120, 160)
	rand.New(rand.NewSource(7)).Read(img.Pix)
	b.SetBytes(int64(len(img.Pix)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, img); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTGAHeaderContents(t *testing.T) {
	img := fb.New(300, 200)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 18+300*200*3 {
		t.Fatalf("encoded size = %d", len(b))
	}
	if b[2] != 2 || b[16] != 24 {
		t.Errorf("type=%d depth=%d", b[2], b[16])
	}
	w := int(b[12]) | int(b[13])<<8
	h := int(b[14]) | int(b[15])<<8
	if w != 300 || h != 200 {
		t.Errorf("header dims %dx%d", w, h)
	}
}

func TestTGADecodeBottomLeftOrigin(t *testing.T) {
	img := gradientImage(5, 4)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip the origin bit and reverse the rows: the decoded image must
	// be unchanged.
	raw[17] &^= 0x20
	rows := raw[18:]
	flipped := make([]byte, len(rows))
	rw := 5 * 3
	for y := 0; y < 4; y++ {
		copy(flipped[y*rw:(y+1)*rw], rows[(3-y)*rw:(4-y)*rw])
	}
	copy(rows, flipped)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("bottom-left origin decode wrong")
	}
}

func TestTGADecodeRejectsBadFormats(t *testing.T) {
	img := fb.New(2, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[2] = 10 // RLE type
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "type") {
		t.Errorf("RLE accepted: %v", err)
	}
	bad = append([]byte(nil), buf.Bytes()...)
	bad[16] = 32
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("32-bit accepted: %v", err)
	}
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header accepted")
	}
	trunc := buf.Bytes()[:20]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated pixels accepted")
	}
}

func TestTGAFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame0001.tga")
	img := gradientImage(16, 16)
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("file round trip differs")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	img := gradientImage(9, 7)
	var buf bytes.Buffer
	if err := EncodePPM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n9 7\n255\n")) {
		t.Errorf("PPM header = %q", buf.Bytes()[:12])
	}
	got, err := DecodePPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Error("PPM round trip differs")
	}
}

func TestPPMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ppm")
	img := fb.New(3, 3)
	img.Set(1, 1, vm.V(1, 0, 0))
	if err := WriteFilePPM(path, img); err != nil {
		t.Fatal(err)
	}
	// Decode via ReadFile-equivalent manual open is covered in round
	// trip; just confirm bytes written.
	got, err := ReadFile(path)
	if err == nil {
		_ = got
		t.Error("TGA reader accepted a PPM file")
	}
}

func TestImageAdapterRoundTrip(t *testing.T) {
	img := gradientImage(13, 9)
	adapted := ToImage(img)
	if adapted.Bounds().Dx() != 13 || adapted.Bounds().Dy() != 9 {
		t.Fatalf("bounds = %v", adapted.Bounds())
	}
	back := FromImage(adapted)
	if !back.Equal(img) {
		t.Error("image.Image round trip changed pixels")
	}
}

// TestImageAdapterOutsideBounds: the adapter answers the zero colour
// outside its bounds, as image.RGBA does, and a region framebuffer's
// bounds are its rectangle of the frame.
func TestImageAdapterOutsideBounds(t *testing.T) {
	img := gradientImage(13, 9)
	adapted := ToImage(img)
	for _, p := range [][2]int{{13, 0}, {-1, 0}, {0, 9}, {0, -1}} {
		if c := adapted.At(p[0], p[1]); c != (color.RGBA{}) {
			t.Errorf("At(%d,%d) = %v, want the zero colour", p[0], p[1], c)
		}
	}
	region := fb.NewRegion(fb.NewRect(5, 3, 8, 7))
	region.SetRGB(5, 3, 1, 2, 3)
	ri := ToImage(region)
	if b := ri.Bounds(); b != image.Rect(5, 3, 8, 7) {
		t.Errorf("region bounds = %v", b)
	}
	if c := ri.At(5, 3); c != (color.RGBA{R: 1, G: 2, B: 3, A: 0xFF}) {
		t.Errorf("region origin = %v", c)
	}
	if c := ri.At(0, 0); c != (color.RGBA{}) {
		t.Errorf("region At(0,0) = %v, want the zero colour", c)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	img := gradientImage(21, 17)
	var buf bytes.Buffer
	if err := EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("PNG round trip changed pixels")
	}
}

func TestPNGFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.png")
	img := gradientImage(8, 8)
	if err := WriteFilePNG(path, img); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := DecodePNG(f)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("PNG file round trip differs")
	}
}
