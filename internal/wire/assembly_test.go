package wire

import (
	"testing"

	"nowrender/internal/fb"
)

func TestAssemblyValidation(t *testing.T) {
	a := NewAssemblyRange(4, 4, 0, 2)
	full := fb.NewRect(0, 0, 4, 4)
	pix := make([]byte, full.Area()*3)
	if _, _, err := a.Deliver(5, full, pix, 0); err == nil {
		t.Error("out-of-range frame accepted")
	}
	if _, _, err := a.Deliver(0, full, pix[:3], 0); err == nil {
		t.Error("short pixel payload accepted")
	}
	if _, _, err := a.Deliver(0, fb.NewRect(-1, 0, 4, 4), pix, 0); err == nil {
		t.Error("negative-origin region accepted")
	}
	if _, _, err := a.Deliver(0, fb.NewRect(0, 0, 5, 4), make([]byte, 5*4*3), 0); err == nil {
		t.Error("out-of-bounds region accepted")
	}
	if _, _, err := a.Deliver(0, fb.Rect{X0: 3, Y0: 0, X1: 1, Y1: 4}, pix, 0); err == nil {
		t.Error("inverted region accepted")
	}
	done, dup, err := a.Deliver(0, full, pix, 0)
	if err != nil || !done || dup {
		t.Errorf("full delivery: done=%v dup=%v err=%v", done, dup, err)
	}
	// The identical (frame, region) again is a duplicate — dropped, not
	// an error (speculative copies and post-failure retries produce it).
	done, dup, err = a.Deliver(0, full, pix, 0)
	if err != nil || done || !dup {
		t.Errorf("duplicate delivery: done=%v dup=%v err=%v", done, dup, err)
	}
	if !a.Delivered(0, full) {
		t.Error("delivered() lost track of a landed region")
	}
	if a.Delivered(1, full) {
		t.Error("delivered() reports an undelivered frame")
	}
	// A different, overlapping region for the same frame is structural
	// over-delivery, still an error.
	if _, _, err := a.Deliver(0, fb.NewRect(0, 0, 2, 4), make([]byte, 2*4*3), 0); err == nil {
		t.Error("over-delivery accepted")
	}
	if err := a.Complete(); err == nil {
		t.Error("incomplete assembly accepted")
	}
}

func TestExtractRegion(t *testing.T) {
	img := fb.New(4, 4)
	img.SetRGB(1, 1, 10, 20, 30)
	img.SetRGB(2, 1, 40, 50, 60)
	pix := ExtractRegion(img, fb.NewRect(1, 1, 3, 2))
	if len(pix) != 6 {
		t.Fatalf("extracted %d bytes", len(pix))
	}
	if pix[0] != 10 || pix[3] != 40 {
		t.Errorf("pixels = %v", pix)
	}
}
