package tga

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/heappin"
	"nowrender/internal/scenes"
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

// referenceEncode is the uncompressed (type 2) row-by-row encoder that
// Encode once was. Nothing writes type 2 any more, but other writers
// do, so its output is the fixture Decode must still read.
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

// referenceRLE is the independent statement of the format Encode
// writes: type 10, top-left origin, and per row, pixel by pixel, a run
// packet for two or more equal neighbours and raw packets for the rest,
// at most 128 pixels a packet and none crossing a row. The benchmark's
// TGA oracle is built with Encode itself, so only the comparison with
// this pins the bytes.
func referenceRLE(img *fb.Framebuffer) []byte {
	out := []byte{0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		byte(img.W), byte(img.W >> 8), byte(img.H), byte(img.H >> 8), 24, 0x20}
	bgr := func(x, y int) [3]byte {
		r, g, b := img.At(x, y)
		return [3]byte{b, g, r}
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; {
			n := 1
			for x+n < img.W && n < 128 && bgr(x+n, y) == bgr(x, y) {
				n++
			}
			if n >= 2 {
				p := bgr(x, y)
				out = append(out, byte(0x80|(n-1)), p[0], p[1], p[2])
				x += n
				continue
			}
			n = 1
			for x+n < img.W && n < 128 && !(x+n+1 < img.W && bgr(x+n, y) == bgr(x+n+1, y)) {
				n++
			}
			out = append(out, byte(n-1))
			for i := 0; i < n; i++ {
				p := bgr(x+i, y)
				out = append(out, p[:]...)
			}
			x += n
		}
	}
	return out
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

// runImage is a w x h image of runs: each row is cut into stretches of
// random length (1 to 300 pixels, so runs meet and cross the 128-pixel
// packet limit) drawn from a two-colour palette, so equal neighbours
// also meet across stretches.
func runImage(rng *rand.Rand, w, h int) *fb.Framebuffer {
	img := fb.New(w, h)
	palette := [][3]byte{{10, 20, 30}, {10, 20, 31}, {200, 0, 0}}
	for y := 0; y < h; y++ {
		for x := 0; x < w; {
			c := palette[rng.Intn(len(palette))]
			for n := 1 + rng.Intn(300); n > 0 && x < w; n, x = n-1, x+1 {
				img.SetRGB(x, y, c[0], c[1], c[2])
			}
		}
	}
	return img
}

// TestEncodeMatchesReference: Encode is byte-identical to the
// pixel-by-pixel reference on degenerate, thin, odd-width, wide and
// frame-sized images of noise, runs and a flat colour; it hands the
// writer the whole file in one Write, within the worst-case bound; and
// the kept type-2 reference output decodes to the same pixels.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range [][2]int{{0, 0}, {1, 1}, {1, 9}, {9, 1}, {2, 3}, {33, 17}, {120, 160}, {128, 2}, {129, 2}, {300, 7}} {
		noise := fb.New(d[0], d[1])
		rng.Read(noise.Pix)
		flat := fb.New(d[0], d[1])
		for i := range flat.Pix {
			flat.Pix[i] = byte(i % 3)
		}
		for name, img := range map[string]*fb.Framebuffer{"noise": noise, "runs": runImage(rng, d[0], d[1]), "flat": flat} {
			orig := append([]byte(nil), img.Pix...)
			want := referenceRLE(img)
			var got countingWriter
			if err := Encode(&got, img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s %dx%d: Encode differs from the reference encoder", name, d[0], d[1])
			}
			if bound := maxLen(d[0], d[1]); got.Len() > bound || got.writes != 1 {
				t.Errorf("%s %dx%d: %d bytes in %d writes, want at most %d in 1", name, d[0], d[1], got.Len(), got.writes, bound)
			}
			if !bytes.Equal(img.Pix, orig) {
				t.Errorf("%s %dx%d: Encode modified the framebuffer", name, d[0], d[1])
			}
			data, err := Bytes(img)
			if err != nil || cap(data) != len(data) {
				t.Errorf("%s %dx%d: Bytes gave cap %d for len %d (%v), want an exact-size slice", name, d[0], d[1], cap(data), len(data), err)
			}
			var raw bytes.Buffer
			if err := referenceEncode(&raw, img); err != nil {
				t.Fatal(err)
			}
			for format, file := range map[string][]byte{"type 2": raw.Bytes(), "type 10": want} {
				back, err := Decode(bytes.NewReader(file))
				if err != nil || !back.Equal(img) {
					t.Errorf("%s %dx%d: %s file does not decode to the image (%v)", name, d[0], d[1], format, err)
				}
			}
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

// newtonFrames renders frames [0, n) of the 90-frame Newton animation
// the benchmark's window is cut from, at 120x160, with the coherence
// engine (the animation is one camera-stationary sequence).
func newtonFrames(tb testing.TB, n int) []*fb.Framebuffer {
	tb.Helper()
	const w, h = 120, 160
	e, err := coherence.NewEngine(scenes.Newton(90), w, h, fb.NewRect(0, 0, w, h), 0, n, coherence.Options{Threads: 2})
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*fb.Framebuffer, n)
	for f := range out {
		out[f] = fb.New(w, h)
		if _, err := e.RenderFrame(f, out[f]); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestNewtonFramesCompress: every Newton frame the benchmark can fetch
// encodes to at most 18.2 kB, under a third of the 57,618 bytes of the
// uncompressed file, and decodes back to its pixels.
func TestNewtonFramesCompress(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 90 frames")
	}
	lo, hi := 1<<30, 0
	for f, img := range newtonFrames(t, 90) {
		data, err := Bytes(img)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi = min(lo, len(data)), max(hi, len(data))
		if len(data) > 18200 {
			t.Errorf("frame %d encodes to %d bytes, want at most 18,200", f, len(data))
		}
		back, err := Decode(bytes.NewReader(data))
		if err != nil || !back.Equal(img) {
			t.Errorf("frame %d does not decode to its pixels (%v)", f, err)
		}
	}
	t.Logf("Newton 120x160 frames 0-89: %d to %d bytes each", lo, hi)
}

// BenchmarkEncode is the per-frame cost at the benchmark's frame size:
// on noise (no two equal neighbours, so every pixel goes out raw) and on
// a rendered Newton frame (mostly runs).
func BenchmarkEncode(b *testing.B) {
	noise := fb.New(120, 160)
	rand.New(rand.NewSource(7)).Read(noise.Pix)
	newton := newtonFrames(b, 23)[22]
	for _, bc := range []struct {
		name string
		img  *fb.Framebuffer
	}{{"noise", noise}, {"newton", newton}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.img.Pix)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Encode(io.Discard, bc.img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTGAHeaderContents(t *testing.T) {
	img := fb.New(300, 200)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// A black 300-pixel row is three run packets: 128, 128 and 44 pixels.
	if len(b) != 18+200*3*4 || len(b) > maxLen(300, 200) {
		t.Fatalf("encoded size = %d, want %d (the bound is %d)", len(b), 18+200*3*4, maxLen(300, 200))
	}
	if b[2] != 10 || b[16] != 24 || b[17] != 0x20 {
		t.Errorf("type=%d depth=%d descriptor=%#x, want 10, 24, 0x20", b[2], b[16], b[17])
	}
	w := int(b[12]) | int(b[13])<<8
	h := int(b[14]) | int(b[15])<<8
	if w != 300 || h != 200 {
		t.Errorf("header dims %dx%d", w, h)
	}
	if maxLen(300, 200) != 18+3*300*200+200*3 {
		t.Errorf("maxLen(300, 200) = %d", maxLen(300, 200))
	}
}

// flipRows returns img upside down.
func flipRows(img *fb.Framebuffer) *fb.Framebuffer {
	out := fb.New(img.W, img.H)
	rw := 3 * img.W
	for y := 0; y < img.H; y++ {
		copy(out.Pix[y*rw:(y+1)*rw], img.Pix[(img.H-1-y)*rw:(img.H-y)*rw])
	}
	return out
}

// TestTGADecodeBottomLeftOrigin: a file whose rows run bottom first
// decodes to the same image, uncompressed or run-length.
func TestTGADecodeBottomLeftOrigin(t *testing.T) {
	img := runImage(rand.New(rand.NewSource(3)), 5, 4)
	flipped := flipRows(img)
	var raw bytes.Buffer
	if err := referenceEncode(&raw, flipped); err != nil {
		t.Fatal(err)
	}
	rle, err := Bytes(flipped)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range [][]byte{raw.Bytes(), rle} {
		file[17] &^= 0x20
		got, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(img) {
			t.Errorf("type %d: bottom-left origin decode wrong", file[2])
		}
	}
}

// TestTGADecodeForeignPackets: Decode reads what other writers emit —
// an ID field, and packets that run across rows — but no packet may
// write past the last pixel.
func TestTGADecodeForeignPackets(t *testing.T) {
	hd := func(idLen byte) []byte {
		return []byte{idLen, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 0, 24, 0x20}
	}
	// A 3x2 image: one run of four pixels across the row break, then a
	// raw packet of two.
	body := []byte{0x83, 1, 2, 3, 0x01, 4, 5, 6, 7, 8, 9}
	want := fb.New(3, 2)
	for i := 0; i < 4; i++ {
		want.SetRGB(i%3, i/3, 3, 2, 1)
	}
	want.SetRGB(1, 1, 6, 5, 4)
	want.SetRGB(2, 1, 9, 8, 7)
	file := append(append(hd(4), "name"...), body...)
	got, err := Decode(bytes.NewReader(file))
	if err != nil || !got.Equal(want) {
		t.Errorf("packets across rows after an ID field: %v", err)
	}
	// The same six pixels as one run of seven.
	over := append(hd(0), 0x86, 1, 2, 3)
	if _, err := Decode(bytes.NewReader(over)); err == nil || !strings.Contains(err.Error(), "past the last pixel") {
		t.Errorf("a packet past the last pixel: %v", err)
	}
}

func TestTGADecodeRejectsBadFormats(t *testing.T) {
	img := fb.New(2, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("run-length file refused: %v", err)
	}
	for _, typ := range []byte{1, 3, 9, 11} { // colour-mapped and grey, plain and run-length
		bad := append([]byte(nil), buf.Bytes()...)
		bad[2] = typ
		if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("type %d", typ)) {
			t.Errorf("type %d accepted or not named: %v", typ, err)
		}
	}
	bad := append([]byte(nil), buf.Bytes()...)
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
	var raw bytes.Buffer
	if err := referenceEncode(&raw, img); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(raw.Bytes()[:29])); err == nil {
		t.Error("truncated uncompressed pixels accepted")
	}
}

// hostileHeader claims a 65535x65535 image, 12.9 GB of pixels.
func hostileHeader(typ byte) []byte {
	return []byte{0, 0, typ, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 24, 0x20}
}

// TestTGADecodeHostileHeader: a header that claims the largest image
// the format can describe, followed by two bytes, fails without
// allocating the image it claims.
func TestTGADecodeHostileHeader(t *testing.T) {
	for _, typ := range []byte{2, 10} {
		file := append(hostileHeader(typ), 0x85, 0)
		var err error
		perCall, _ := heappin.PerCall(t, 10, func() { _, err = Decode(bytes.NewReader(file)) })
		if err == nil {
			t.Errorf("type %d: a 65535x65535 header and 2 bytes decoded", typ)
		}
		if perCall >= 1<<20 {
			t.Errorf("type %d: decoding 20 bytes allocated %d bytes, want under 1 MB", typ, perCall)
		}
	}
}

// decodeAllocBound is what Decode may allocate for n bytes of input:
// its reader and first pixel chunk, then twice the pixels the input can
// describe (a buffer doubles as it fills), at most 128 pixels of 3
// bytes for every 4 bytes of run-length input.
func decodeAllocBound(n int) uint64 {
	return 1<<20 + 2*uint64(n)*96
}

// FuzzTGADecode: no input makes Decode panic or allocate more than its
// bytes can fill, and whatever it decodes survives Encode and Decode
// unchanged.
func FuzzTGADecode(f *testing.F) {
	img := runImage(rand.New(rand.NewSource(5)), 7, 3)
	rle, _ := Bytes(img)
	var raw bytes.Buffer
	referenceEncode(&raw, img)
	f.Add(rle)
	f.Add(raw.Bytes())
	f.Add(append(hostileHeader(10), 0xFF, 1, 2, 3))
	f.Add(append(hostileHeader(2), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > decodeAllocBound(len(data)) {
			t.Fatalf("%d bytes of input allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		again, err := Bytes(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(again))
		if err != nil || !back.Equal(got) {
			t.Fatalf("Decode(Encode(img)) differs from img (%v)", err)
		}
	})
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
	if !bytes.Equal(buf.Bytes()[len("P6\n9 7\n255\n"):], img.Pix) {
		t.Error("PPM pixels are not the framebuffer's RGB bytes")
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
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back := FromImage(decoded); !back.Equal(img) {
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
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if back := FromImage(decoded); !back.Equal(img) {
		t.Error("PNG file round trip differs")
	}
}
