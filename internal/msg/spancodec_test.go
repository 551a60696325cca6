package msg

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"nowrender/internal/heappin"
)

// Payload generators spanning the shapes frame deltas actually take:
// flat fills, smooth gradients, banded structure with noise, and
// incompressible randomness. Sizes deliberately include non-multiples
// of 3 to exercise the verbatim tail.

func flatPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		switch i % 3 {
		case 0:
			b[i] = 0x20
		case 1:
			b[i] = 0x40
		case 2:
			b[i] = 0x80
		}
	}
	return b
}

func gradientPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		px := i / 3
		b[i] = byte(px >> 3) // 8-pixel flat steps, stepping per channel
	}
	return b
}

func bandedPayload(n int, rng *rand.Rand) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 3 {
		px := i / 3
		band := (px / 37) % 4
		r, g, bl := byte(band*60), byte(255-band*60), byte(band*17)
		if rng.Intn(16) == 0 { // sparse noise breaking runs
			r, g, bl = byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		}
		b[i] = r
		if i+1 < n {
			b[i+1] = g
		}
		if i+2 < n {
			b[i+2] = bl
		}
	}
	return b
}

func randomPayload(n int, rng *rand.Rand) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func spanPayloads(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(9))
	return map[string][]byte{
		"empty":        {},
		"one-byte":     {0xAB},
		"two-bytes":    {0xAB, 0xCD},
		"one-pixel":    {1, 2, 3},
		"pixel+tail":   {1, 2, 3, 4},
		"flat":         flatPayload(3 * 4096),
		"flat-tail":    flatPayload(3*512 + 2),
		"gradient":     gradientPayload(3 * 2048),
		"banded":       bandedPayload(3*3000+1, rng),
		"random":       randomPayload(3*1024, rng),
		"random-small": randomPayload(17, rng),
		"repeat-rows": func() []byte {
			row := randomPayload(3*160, rng)
			var b []byte
			for i := 0; i < 40; i++ {
				b = append(b, row...)
			}
			return b
		}(),
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	for name, src := range spanPayloads(t) {
		enc := SpanCompress(nil, src)
		dst := make([]byte, len(src))
		if err := SpanDecompress(dst, enc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("%s: round-trip mismatch (%d bytes in, %d encoded)", name, len(src), len(enc))
		}
		t.Logf("%s: %d -> %d bytes (%.2fx)", name, len(src), len(enc),
			float64(len(src))/float64(max(len(enc), 1)))
	}
}

// TestSpanCodecRoundTripAppend pins the append contract: encoding into
// a reused scratch slice with prior contents must leave the prefix
// intact and decode from the appended region.
func TestSpanCodecRoundTripAppend(t *testing.T) {
	src := bandedPayload(3*500, rand.New(rand.NewSource(3)))
	prefix := []byte("prefix")
	scratch := append(make([]byte, 0, 4096), prefix...)
	enc := SpanCompress(scratch, src)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("SpanCompress clobbered existing dst contents")
	}
	dst := make([]byte, len(src))
	if err := SpanDecompress(dst, enc[len(prefix):]); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("round-trip mismatch through reused scratch")
	}
}

// TestSpanCodecRatios pins the codec's reason to exist: flat and
// row-repetitive payloads must shrink dramatically, and even noisy
// banded content must beat 2x. Random data may expand (callers keep
// raw in that case).
func TestSpanCodecRatios(t *testing.T) {
	p := spanPayloads(t)
	// repeat-rows is bounded by its incompressible first row: 40 rows
	// collapse to ~1 row + one big copy, so the ceiling is ~40x.
	for name, minRatio := range map[string]float64{"flat": 100, "repeat-rows": 30, "banded": 2} {
		src := p[name]
		enc := SpanCompress(nil, src)
		if r := float64(len(src)) / float64(len(enc)); r < minRatio {
			t.Errorf("%s: ratio %.1fx, want >= %.0fx (%d -> %d bytes)",
				name, r, minRatio, len(src), len(enc))
		}
	}
	if enc := SpanCompress(nil, p["random"]); len(enc) > len(p["random"])*11/10 {
		t.Errorf("random payload expanded past 10%%: %d -> %d", len(p["random"]), len(enc))
	}
}

func TestSpanDecompressMalformed(t *testing.T) {
	valid := SpanCompress(nil, flatPayload(3*64))
	cases := map[string]struct {
		dstLen int
		src    []byte
	}{
		"empty stream, nonzero dst":   {30, nil},
		"invalid op 3":                {30, []byte{0x03}},
		"run with no previous pixel":  {30, []byte{0x01}},
		"copy with no output yet":     {30, []byte{0x02, 0x01}},
		"copy distance zero":          {30, []byte{0x00, 1, 2, 3, 0x02, 0x00}},
		"copy distance beyond output": {30, []byte{0x00, 1, 2, 3, 0x02, 0x02}},
		"copy missing distance":       {30, []byte{0x00, 1, 2, 3, 0x02}},
		"truncated literal":           {30, []byte{0x28, 1, 2, 3}},
		"literal overruns dst":        {3, []byte{0x04, 1, 2, 3, 4, 5, 6}},
		"run overruns dst":            {6, []byte{0x00, 1, 2, 3, 0x09}},
		"extended length truncated":   {300, []byte{0xFC}},
		"extended length huge":        {300, []byte{0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}},
		"trailing garbage":            {3 * 64, append(append([]byte{}, valid...), 0xEE)},
		"short tail":                  {4, []byte{0x00, 1, 2, 3}},
		"long tail":                   {4, []byte{0x00, 1, 2, 3, 9, 9}},
	}
	for name, c := range cases {
		dst := make([]byte, c.dstLen)
		if err := SpanDecompress(dst, c.src); err == nil {
			t.Errorf("%s: decode accepted malformed stream", name)
		}
	}
	// And the empty/empty identity stays valid.
	if err := SpanDecompress(nil, nil); err != nil {
		t.Errorf("empty/empty: %v", err)
	}
}

// TestSpanCompressEncoderReuse runs many payloads through the pooled
// encoder back to back: stale hash-table entries from earlier payloads
// must never corrupt a later encoding.
func TestSpanCompressEncoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var scratch []byte
	for i := 0; i < 200; i++ {
		n := rng.Intn(3 * 2000)
		var src []byte
		switch i % 4 {
		case 0:
			src = flatPayload(n)
		case 1:
			src = gradientPayload(n)
		case 2:
			src = bandedPayload(n, rng)
		default:
			src = randomPayload(n, rng)
		}
		scratch = SpanCompress(scratch[:0], src)
		dst := make([]byte, len(src))
		if err := SpanDecompress(dst, scratch); err != nil {
			t.Fatalf("iter %d (len %d): %v", i, n, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("iter %d (len %d): round-trip mismatch", i, n)
		}
	}
}

// TestSpanCompressIsPure: a payload compresses to the bytes a fresh
// encoder gives it, whatever the encoder compressed before, and across the
// reset when the base would overflow int32. B is random pixels P followed
// by short repeats of P's middle between random fillers; A shares P's
// middle but reaches it with its probe stride reset by a flat start, so
// A's table holds offsets at which B's repeats verify and which B's
// skipping probes never stored. A table that read them found 87 bytes of
// matches a fresh one does not.
func TestSpanCompressIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomPayload(3*4000, rng)
	a := append(flatPayload(3*1000), p[3*1000:]...)
	b := append([]byte(nil), p...)
	for range 40 {
		c := 3 * (1500 + rng.Intn(1000))
		b = append(append(b, p[c:c+3*6]...), randomPayload(3*10, rng)...)
	}
	want := new(spanEnc).compress(nil, b)

	e := new(spanEnc)
	e.compress(nil, a)
	if got := e.compress(nil, b); !bytes.Equal(got, want) {
		t.Errorf("after another payload: %d bytes, fresh encoder %d", len(got), len(want))
	}
	// A's entries just below int32's limit; B does not fit above them, so
	// its call resets the base.
	high := math.MaxInt32 - len(a) - len(b)/2
	e.base = high
	e.compress(nil, a)
	if got := e.compress(nil, b); !bytes.Equal(got, want) {
		t.Errorf("across the base's reset: %d bytes, fresh encoder %d", len(got), len(want))
	}
	// The same with a flat payload resetting it, which writes few entries:
	// when, 2 GB of payloads later, the base is back where A's entries
	// are, they must be gone.
	e.base = high
	e.compress(nil, a)
	e.compress(nil, flatPayload(len(b)))
	e.base = high
	if got := e.compress(nil, b); !bytes.Equal(got, want) {
		t.Errorf("back at the base before the reset: %d bytes, fresh encoder %d", len(got), len(want))
	}
	SpanCompress(nil, a)
	if got := SpanCompress(nil, b); !bytes.Equal(got, want) {
		t.Errorf("through the pool: %d bytes, fresh encoder %d", len(got), len(want))
	}
}

// TestSpanCompressAllocFree asserts the encode path allocates nothing
// once the scratch slice has capacity and the encoder pool is warm.
func TestSpanCompressAllocFree(t *testing.T) {
	src := bandedPayload(3*4096, rand.New(rand.NewSource(5)))
	scratch := make([]byte, 0, 2*len(src))
	scratch = SpanCompress(scratch[:0], src) // warm the pool
	if _, n := heappin.PerCall(t, 100, func() {
		scratch = SpanCompress(scratch[:0], src)
	}); n != 0 {
		t.Fatalf("SpanCompress allocated %d times per run, want 0", n)
	}
	dst := make([]byte, len(src))
	if _, n := heappin.PerCall(t, 100, func() {
		if err := SpanDecompress(dst, scratch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SpanDecompress allocated %d times per run, want 0", n)
	}
}

func FuzzSpanCodecDecode(f *testing.F) {
	for _, src := range [][]byte{
		flatPayload(3 * 100),
		gradientPayload(3*50 + 1),
		bandedPayload(3*80+2, rand.New(rand.NewSource(1))),
		{1, 2, 3, 1, 2, 3, 1, 2, 3},
	} {
		f.Add(SpanCompress(nil, src), len(src))
		f.Add(src, len(src))
	}
	f.Add([]byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x01}, 30)
	f.Fuzz(func(t *testing.T, data []byte, dstLen int) {
		// Total decoder: arbitrary input must fill dst exactly or error,
		// never panic or touch memory out of bounds.
		if dstLen < 0 || dstLen > 1<<16 {
			dstLen = len(data)
		}
		dst := make([]byte, dstLen, dstLen+8)
		dst = dst[:dstLen:dstLen]
		_ = SpanDecompress(dst, data)

		// And whatever the encoder emits for this input must round-trip.
		enc := SpanCompress(nil, data)
		out := make([]byte, len(data))
		if err := SpanDecompress(out, enc); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch for %d-byte input", len(data))
		}
	})
}

// Benchmarks: the span codec on the same banded payload the ratio test
// uses — the realistic middle ground between flat and
// random. Encode must stay allocation-free.

func benchPayload() []byte {
	return bandedPayload(3*64*1024, rand.New(rand.NewSource(11)))
}

func BenchmarkSpanCodecEncode(b *testing.B) {
	src := benchPayload()
	scratch := SpanCompress(make([]byte, 0, len(src)), src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = SpanCompress(scratch[:0], src)
	}
	_ = scratch
}

func BenchmarkSpanCodecDecode(b *testing.B) {
	src := benchPayload()
	enc := SpanCompress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SpanDecompress(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
