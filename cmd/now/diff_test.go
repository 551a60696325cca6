package main

import (
	"path/filepath"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/tga"
)

func writeTGA(t *testing.T, path string, tint byte) {
	t.Helper()
	img := fb.New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			img.SetRGB(x, y, byte(x*16), byte(y*16), tint)
		}
	}
	if err := tga.WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
}

// TestExitCodes pins the diff(1) convention for file-diff mode:
// identical images exit 0, differing images exit 1, errors exit 2.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	same1 := filepath.Join(dir, "same1.tga")
	same2 := filepath.Join(dir, "same2.tga")
	other := filepath.Join(dir, "other.tga")
	writeTGA(t, same1, 0)
	writeTGA(t, same2, 0)
	writeTGA(t, other, 255)

	if code, _, _ := runNow("diff", "-a", same1, "-b", same2); code != 0 {
		t.Errorf("identical images: exit %d, want 0", code)
	}
	if code, _, _ := runNow("diff", "-a", same1, "-b", other, "-out", dir); code != 1 {
		t.Errorf("differing images: exit %d, want 1", code)
	}
	if code, _, _ := runNow("diff", "-a", same1, "-b", filepath.Join(dir, "missing.tga")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code, _, _ := runNow("diff", "-a", same1); code != 2 {
		t.Errorf("-a without -b: exit %d, want 2", code)
	}
}
