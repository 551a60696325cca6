package fb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	vm "nowrender/internal/vecmath"
)

func TestSetAtRoundTrip(t *testing.T) {
	f := New(4, 3)
	f.Set(2, 1, vm.V(1, 0.5, 0))
	r, g, b := f.At(2, 1)
	if r != 255 || g != 128 || b != 0 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
}

func TestSetClamps(t *testing.T) {
	f := New(1, 1)
	f.Set(0, 0, vm.V(2, -1, 0.5))
	r, g, b := f.At(0, 0)
	if r != 255 || g != 0 || b != 128 {
		t.Errorf("clamped = %d,%d,%d", r, g, b)
	}
}

func TestAtColor(t *testing.T) {
	f := New(1, 1)
	f.SetRGB(0, 0, 255, 0, 51)
	c := f.AtColor(0, 0)
	if !c.ApproxEq(vm.V(1, 0, 0.2), 1e-9) {
		t.Errorf("AtColor = %v", c)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := New(2, 2)
	f.SetRGB(0, 0, 10, 20, 30)
	c := f.Clone()
	c.SetRGB(0, 0, 99, 99, 99)
	if r, _, _ := f.At(0, 0); r != 10 {
		t.Error("clone mutation leaked into original")
	}
	if !f.Equal(f.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestEqualAndDiffCount(t *testing.T) {
	a := New(3, 3)
	b := New(3, 3)
	if !a.Equal(b) {
		t.Error("fresh buffers differ")
	}
	b.SetRGB(1, 1, 1, 2, 3)
	b.SetRGB(2, 2, 4, 5, 6)
	if a.Equal(b) {
		t.Error("differing buffers equal")
	}
	if got := a.DiffCount(b); got != 2 {
		t.Errorf("DiffCount = %d, want 2", got)
	}
	if a.Equal(New(2, 2)) {
		t.Error("different dimensions reported equal")
	}
}

func TestCopyRect(t *testing.T) {
	src := New(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			src.SetRGB(x, y, byte(x*10), byte(y*10), 7)
		}
	}
	dst := New(4, 4)
	dst.CopyRect(src, NewRect(1, 1, 3, 3))
	if got := dst.DiffCount(src); got != 16-4 {
		t.Errorf("after CopyRect, %d pixels differ, want 12", got)
	}
	if r, _, _ := dst.At(0, 0); r != 0 {
		t.Error("CopyRect touched pixels outside the rect")
	}
	// Out to a region framebuffer and back, by frame coordinates.
	r := NewRect(1, 2, 4, 4)
	reg := NewRegion(r)
	reg.CopyRect(src, r)
	if g := reg.Bounds(); g != r || len(reg.Pix) != r.Area()*3 {
		t.Fatalf("region framebuffer covers %v in %d bytes", g, len(reg.Pix))
	}
	if red, green, _ := reg.At(2, 3); red != 20 || green != 30 {
		t.Errorf("region At(2,3) = %d,%d, want 20,30", red, green)
	}
	back := New(4, 4)
	back.CopyRect(reg, r)
	if got := back.DiffCount(src); got != 16-r.Area() {
		t.Errorf("after the round trip, %d pixels differ, want %d", got, 16-r.Area())
	}
}

// TestRegionFramebuffer: a framebuffer over a rectangle of the frame
// takes frame coordinates everywhere and holds only its own pixels.
func TestRegionFramebuffer(t *testing.T) {
	r := NewRect(40, 80, 80, 120)
	f := NewRegion(r)
	if f.Bounds() != r || len(f.Pix) != 3*r.Area() {
		t.Fatalf("NewRegion(%v) covers %v in %d bytes", r, f.Bounds(), len(f.Pix))
	}
	f.SetRGB(40, 80, 1, 2, 3)
	f.Set(79, 119, vm.V(1, 1, 1))
	if got := f.Pix[:3]; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("origin pixel stored at %v", got)
	}
	if red, _, _ := f.At(79, 119); red != 255 || f.Pix[len(f.Pix)-3] != 255 {
		t.Error("last pixel not at the end of Pix")
	}
	if c := f.Clone(); !c.Equal(f) || c.Bounds() != r {
		t.Error("clone lost the origin")
	}
	if f.Equal(Wrap(NewRect(0, 0, 40, 40), f.Pix)) {
		t.Error("same pixels at another origin reported equal")
	}
	f.Fill(vm.V(0, 1, 0))
	if _, g, _ := f.At(40, 80); g != 255 {
		t.Error("Fill missed the origin")
	}
	spans := []Span{{Y: 100, X0: 50, X1: 52}}
	if err := f.ApplySpans(spans, []byte{9, 9, 9, 8, 8, 8}); err != nil {
		t.Fatal(err)
	}
	if red, _, _ := f.At(51, 100); red != 8 {
		t.Error("ApplySpans missed frame coordinates")
	}
	if got := f.AppendSpans(nil, spans); len(got) != 6 || got[0] != 9 {
		t.Errorf("AppendSpans = %v", got)
	}
	if err := f.ApplySpans([]Span{{Y: 100, X0: 30, X1: 41}}, make([]byte, 33)); err == nil {
		t.Error("span left of the origin accepted")
	}
	for _, p := range [][2]int{{39, 80}, {80, 80}, {40, 79}, {40, 120}, {0, 0}} {
		mustPanic(t, fmt.Sprintf("Set(%d,%d)", p[0], p[1]), func() { f.SetRGB(p[0], p[1], 0, 0, 0) })
		mustPanic(t, fmt.Sprintf("At(%d,%d)", p[0], p[1]), func() { f.At(p[0], p[1]) })
	}
}

// TestAtChecksBounds: At panics naming the pixel, as Set does, instead
// of answering (W, y) with the next row's first pixel or panicking on a
// byte offset.
func TestAtChecksBounds(t *testing.T) {
	f := New(4, 3)
	f.SetRGB(0, 1, 7, 7, 7)
	for _, p := range [][2]int{{4, 0}, {-1, 0}, {0, 3}, {0, -1}} {
		mustPanic(t, fmt.Sprintf("(%d,%d)", p[0], p[1]), func() { f.At(p[0], p[1]) })
	}
}

// mustPanic fails unless fn panics with a message naming the pixel.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, "fb: pixel") {
			t.Errorf("%s panicked with %v, want the pixel named", what, r)
		}
	}()
	fn()
}

func TestFill(t *testing.T) {
	f := New(3, 2)
	f.Fill(vm.V(0, 1, 0))
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			if _, g, _ := f.At(x, y); g != 255 {
				t.Fatalf("Fill missed (%d,%d)", x, y)
			}
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 10, 7)
	if r.W() != 8 || r.H() != 4 || r.Area() != 32 {
		t.Errorf("W/H/Area = %d/%d/%d", r.W(), r.H(), r.Area())
	}
	if !r.Contains(2, 3) || r.Contains(10, 3) || r.Contains(2, 7) {
		t.Error("half-open containment broken")
	}
	if r.Empty() || !NewRect(5, 5, 5, 9).Empty() {
		t.Error("Empty broken")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != NewRect(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("overlap not detected")
	}
	c := NewRect(20, 20, 30, 30)
	if !a.Intersect(c).Empty() || a.Overlaps(c) {
		t.Error("disjoint intersect not empty")
	}
}

func TestRectSplit(t *testing.T) {
	r := NewRect(0, 0, 10, 4)
	a, b := r.Split()
	if a != NewRect(0, 0, 5, 4) || b != NewRect(5, 0, 10, 4) {
		t.Errorf("wide split = %v, %v", a, b)
	}
	tall := NewRect(0, 0, 2, 10)
	a, b = tall.Split()
	if a != NewRect(0, 0, 2, 5) || b != NewRect(0, 5, 2, 10) {
		t.Errorf("tall split = %v, %v", a, b)
	}
	// Area conservation.
	if a.Area()+b.Area() != tall.Area() {
		t.Error("split lost pixels")
	}
	// Single pixel cannot split.
	one := NewRect(3, 3, 4, 4)
	a, b = one.Split()
	if a != one || !b.Empty() {
		t.Errorf("unit split = %v, %v", a, b)
	}
}

func TestRectBlocks(t *testing.T) {
	// The paper's case: 240x320 frame tiled with 80x80 blocks = 12.
	frame := NewRect(0, 0, 240, 320)
	blocks := frame.Blocks(80, 80)
	if len(blocks) != 12 {
		t.Fatalf("blocks = %d, want 12", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += b.Area()
	}
	if total != frame.Area() {
		t.Errorf("blocks cover %d pixels, frame has %d", total, frame.Area())
	}
	// Uneven tiling keeps remainder blocks.
	blocks = NewRect(0, 0, 100, 90).Blocks(80, 80)
	if len(blocks) != 4 {
		t.Fatalf("uneven blocks = %d, want 4", len(blocks))
	}
	total = 0
	for _, b := range blocks {
		total += b.Area()
	}
	if total != 9000 {
		t.Errorf("uneven blocks cover %d", total)
	}
}

func TestRectBlocksPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Blocks(0,0) did not panic")
		}
	}()
	NewRect(0, 0, 10, 10).Blocks(0, 0)
}

// Property: Split never loses or duplicates pixels.
func TestQuickSplitConserves(t *testing.T) {
	f := func(x0, y0 uint8, w, h uint8) bool {
		r := NewRect(int(x0), int(y0), int(x0)+int(w), int(y0)+int(h))
		if r.Empty() {
			return true
		}
		a, b := r.Split()
		if b.Empty() {
			return a == r
		}
		return a.Area()+b.Area() == r.Area() && !a.Overlaps(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Blocks tile exactly: disjoint and covering.
func TestQuickBlocksTile(t *testing.T) {
	f := func(w, h, bw, bh uint8) bool {
		if w == 0 || h == 0 || bw == 0 || bh == 0 {
			return true
		}
		r := NewRect(0, 0, int(w), int(h))
		blocks := r.Blocks(int(bw), int(bh))
		area := 0
		for i, b := range blocks {
			area += b.Area()
			for j := i + 1; j < len(blocks); j++ {
				if b.Overlaps(blocks[j]) {
					return false
				}
			}
		}
		return area == r.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
