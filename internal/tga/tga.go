// Package tga reads and writes 24-bit Targa images, the output format
// the paper's runs used ("240x320 resolution in targa format with
// 24-bit color"), plus binary PPM as a portable alternative.
//
// Frames are written as run-length truecolor Targa (image type 10, what
// POV-Ray writes with +FC): 24-bit, top-left origin, no packet crossing
// a scanline. A rendered frame's flat backgrounds make it about a third
// of the uncompressed size; an image with no two equal neighbours costs
// one packet byte per 128 pixels of a row more, at most
// 18 + 3wh + h·⌈w/128⌉ bytes. The file comes back as one exact-size
// slice (cap == len), because the frame cache keeps it and charges its
// length against the byte budget. Decode reads type 10 and the
// uncompressed type 2, with either origin, and accepts packets that run
// across rows, as other writers emit them.
package tga

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"

	"nowrender/internal/fb"
)

// headerLen is the size of the fixed header: no ID field, no colour map.
const headerLen = 18

// Image types: uncompressed and run-length truecolor.
const (
	typeRaw = 2
	typeRLE = 10
)

// maxPacket is the most pixels one packet holds.
const maxPacket = 128

// maxLen is the worst-case encoded size of a w x h image: every row cut
// into raw packets of maxPacket pixels, each with its count byte.
func maxLen(w, h int) int {
	return headerLen + 3*w*h + h*((w+maxPacket-1)/maxPacket)
}

// encoder is the scratch Bytes encodes into, kept across calls: a
// worst-case buffer the file is copied out of at its exact size, and a
// copy of a row with the 8 bytes of padding encodeRow reads past it.
type encoder struct {
	buf, pad []byte
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Bytes returns img as a run-length 24-bit TGA in one exact-size slice
// the caller owns: the header, then the packets top-left first.
func Bytes(img *fb.Framebuffer) ([]byte, error) {
	if img.W > 0xFFFF || img.H > 0xFFFF {
		return nil, fmt.Errorf("tga: image %dx%d exceeds format limits", img.W, img.H)
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if n := maxLen(img.W, img.H); len(e.buf) < n {
		e.buf = make([]byte, n)
	}
	buf := e.buf
	clear(buf[:headerLen])
	buf[2] = typeRLE
	buf[12] = byte(img.W)
	buf[13] = byte(img.W >> 8)
	buf[14] = byte(img.H)
	buf[15] = byte(img.H >> 8)
	buf[16] = 24   // bits per pixel
	buf[17] = 0x20 // top-left origin
	n := headerLen
	rowLen := 3 * img.W
	for i := 0; i < len(img.Pix); i += rowLen {
		pix, at := img.Pix, i
		if i+rowLen+8 > len(pix) {
			// The last rows: encode a padded copy.
			e.pad = append(append(e.pad[:0], pix[i:i+rowLen]...), make([]byte, 8)...)
			pix, at = e.pad, 0
		}
		n += encodeRow(buf[n:], pix, at, at+rowLen)
	}
	out := make([]byte, n)
	copy(out, buf)
	return out, nil
}

// encodeRow writes the packets of the row pix[i:end] to dst and returns
// how many bytes it wrote. A run of two or more equal pixels makes a run
// packet; anything else goes into raw packets. Pixels are compared a
// word at a time (diff), so pix must hold 8 bytes past end; bytes read
// past end are never counted.
func encodeRow(dst, pix []byte, i, end int) int {
	_ = pix[end+7]
	o := 0
	for i < end {
		// Bytes [i, e) each equal the byte a pixel on, so pixel i has
		// (e-i)/3 equal successors (the last pixel of the row none).
		lim := min(end-3, i+3*(maxPacket-1))
		e := i
		for e < lim {
			if d := diff(pix, e); d != 0 {
				e += bits.TrailingZeros64(d) / 8
				break
			}
			e += 8
		}
		if e = min(e, lim); e >= i+3 {
			more := (e - i) / 3
			bgr := bits.ReverseBytes32(binary.LittleEndian.Uint32(pix[i:])) >> 8
			binary.LittleEndian.PutUint32(dst[o:], uint32(0x80|more)|bgr<<8)
			o += 4
			i += 3 * (more + 1)
			continue
		}
		// Raw pixels up to the next pair of equal neighbours, tested two
		// pixels a word.
		lim = min(end, i+3*maxPacket)
		j := i + 3
		for j < lim {
			d := diff(pix, j)
			if d&0xFFFFFF == 0 && j+3 < end {
				break
			}
			if d&0xFFFFFF000000 == 0 && j+6 < end {
				j += 3
				break
			}
			j += 6
		}
		j = min(j, lim)
		dst[o] = byte((j-i)/3 - 1)
		o++
		// RGB to BGR: copy, then swap R and B in place two pixels a turn.
		d := dst[o : o+j-i]
		copy(d, pix[i:j])
		for ; len(d) >= 6; d = d[6:] {
			d[0], d[2] = d[2], d[0]
			d[3], d[5] = d[5], d[3]
		}
		if len(d) >= 3 {
			d[0], d[2] = d[2], d[0]
		}
		o += j - i
		i = j
	}
	return o
}

// diff returns pix[b:b+8] XOR pix[b+3:b+11] as a little-endian word:
// byte k is zero where byte b+k equals the byte a pixel on.
func diff(pix []byte, b int) uint64 {
	return binary.LittleEndian.Uint64(pix[b:]) ^ binary.LittleEndian.Uint64(pix[b+3:])
}

// Encode writes img as a run-length 24-bit TGA, in one Write.
func Encode(w io.Writer, img *fb.Framebuffer) error {
	data, err := Bytes(img)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// readChunk is the most pixel bytes Decode allocates ahead of the data
// it has read, so a header that claims a huge image costs no more than
// the bytes that follow it can fill. It is a whole number of pixels.
const readChunk = 3 << 14

// Decode reads a 24-bit truecolor TGA, uncompressed (type 2) or
// run-length (type 10), with top-left or bottom-left origin.
func Decode(r io.Reader) (*fb.Framebuffer, error) {
	br := bufio.NewReader(r)
	var hd [headerLen]byte
	if _, err := io.ReadFull(br, hd[:]); err != nil {
		return nil, fmt.Errorf("tga: short header: %w", err)
	}
	typ := hd[2]
	if typ != typeRaw && typ != typeRLE {
		return nil, fmt.Errorf("tga: unsupported image type %d (want 2 or 10)", typ)
	}
	if hd[16] != 24 {
		return nil, fmt.Errorf("tga: unsupported depth %d (want 24)", hd[16])
	}
	if _, err := br.Discard(int(hd[0])); err != nil {
		return nil, fmt.Errorf("tga: short ID field: %w", err)
	}
	w := int(hd[12]) | int(hd[13])<<8
	h := int(hd[14]) | int(hd[15])<<8
	var pix []byte
	var err error
	if typ == typeRaw {
		pix, err = readRaw(br, 3*w*h)
	} else {
		pix, err = readRLE(br, 3*w*h)
	}
	if err != nil {
		return nil, err
	}
	// The file holds BGR; turn it into RGB, and rows into top-first.
	for i := 0; i < len(pix); i += 3 {
		pix[i], pix[i+2] = pix[i+2], pix[i]
	}
	if hd[17]&0x20 == 0 {
		rowLen := 3 * w
		for top, bot := 0, h-1; top < bot; top, bot = top+1, bot-1 {
			a := pix[top*rowLen : (top+1)*rowLen]
			b := pix[bot*rowLen : (bot+1)*rowLen]
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		}
	}
	return fb.Wrap(fb.NewRect(0, 0, w, h), pix), nil
}

// grow returns pix with room for at least one more pixel, at most n
// bytes in all: a fresh buffer starts at readChunk and doubles, so what
// is allocated stays within a constant times what has been read.
func grow(pix []byte, n int) []byte {
	if len(pix) < cap(pix) {
		return pix
	}
	return append(make([]byte, 0, min(n, max(readChunk, 2*cap(pix)))), pix...)
}

// readRaw reads n bytes of uncompressed pixels.
func readRaw(br *bufio.Reader, n int) ([]byte, error) {
	var pix []byte
	for len(pix) < n {
		pix = grow(pix, n)
		m, err := io.ReadFull(br, pix[len(pix):cap(pix)])
		pix = pix[:len(pix)+m]
		if err != nil {
			return nil, fmt.Errorf("tga: short pixel data: %w", err)
		}
	}
	return pix, nil
}

// readRLE reads run-length packets until they have produced n bytes of
// pixels. A packet may run across rows but not past the last pixel.
func readRLE(br *bufio.Reader, n int) ([]byte, error) {
	var pix []byte
	var px [3]byte
	for len(pix) < n {
		c, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("tga: short pixel data: %w", err)
		}
		count := 3 * (int(c&0x7F) + 1)
		if len(pix)+count > n {
			return nil, fmt.Errorf("tga: a packet of %d pixels runs %d past the last pixel", count/3, (len(pix)+count-n)/3)
		}
		run := c&0x80 != 0
		if run {
			if _, err := io.ReadFull(br, px[:]); err != nil {
				return nil, fmt.Errorf("tga: short pixel data: %w", err)
			}
		}
		for count > 0 {
			pix = grow(pix, n)
			seg := pix[len(pix) : len(pix)+min(count, cap(pix)-len(pix))]
			if run {
				for k := 0; k+2 < len(seg); k += 3 {
					seg[k], seg[k+1], seg[k+2] = px[0], px[1], px[2]
				}
			} else if _, err := io.ReadFull(br, seg); err != nil {
				return nil, fmt.Errorf("tga: short pixel data: %w", err)
			}
			pix = pix[:len(pix)+len(seg)]
			count -= len(seg)
		}
	}
	return pix, nil
}

// WriteFile encodes img to path as TGA.
func WriteFile(path string, img *fb.Framebuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a TGA file.
func ReadFile(path string) (*fb.Framebuffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// EncodePPM writes img as binary PPM (P6), handy for quick viewing.
func EncodePPM(w io.Writer, img *fb.Framebuffer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	if _, err := bw.Write(img.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFilePPM encodes img to path as PPM.
func WriteFilePPM(path string, img *fb.Framebuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodePPM(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
