package objfile

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowrender/internal/geom"
	vm "nowrender/internal/vecmath"
)

const cube = `
# unit cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
f 5 8 7 6
f 1 5 6 2
f 2 6 7 3
f 3 7 8 4
f 5 1 4 8
`

func TestParseCube(t *testing.T) {
	m, err := Parse(strings.NewReader(cube))
	if err != nil {
		t.Fatal(err)
	}
	// 6 quads fan-triangulated = 12 triangles.
	if len(m.Tris) != 12 {
		t.Fatalf("%d triangles, want 12", len(m.Tris))
	}
	b := m.Bounds()
	if !b.Pad(1e-9).Contains(vm.V(0, 0, 0)) || !b.Pad(1e-9).Contains(vm.V(1, 1, 1)) {
		t.Errorf("bounds = %v", b)
	}
	// A ray through the middle hits front and would exit the back: the
	// nearest hit is the front face at z=1 (from +z side).
	h, ok := geom.Intersect(m, vm.Ray{Origin: vm.V(0.5, 0.5, 5), Dir: vm.V(0, 0, -1)}, 0, math.Inf(1))
	if !ok {
		t.Fatal("missed cube")
	}
	if math.Abs(h.T-4) > 1e-9 {
		t.Errorf("T = %v, want 4", h.T)
	}
}

func TestParseSmoothNormals(t *testing.T) {
	src := `
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
vn 0 0 1
vn 0 0 1
f 1//1 2//2 3//3
`
	m, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tris) != 1 {
		t.Fatalf("%d triangles", len(m.Tris))
	}
	if m.Tris[0].N0 == nil {
		t.Error("normals not attached")
	}
}

func TestParseSlashForms(t *testing.T) {
	src := `
v 0 0 0
v 1 0 0
v 0 1 0
vt 0 0
vt 1 0
vt 0 1
vn 0 0 1
f 1/1 2/2 3/3
f 1/1/1 2/2/1 3/3/1
f -3 -2 -1
`
	m, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tris) != 3 {
		t.Fatalf("%d triangles, want 3", len(m.Tris))
	}
	// The v/vt/vn face carries normals; the v/vt face does not.
	if m.Tris[0].N0 != nil {
		t.Error("v/vt face should not have normals")
	}
	if m.Tris[1].N0 == nil {
		t.Error("v/vt/vn face should have normals")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no faces", "v 0 0 0\nv 1 0 0\nv 0 1 0\n", "no faces"},
		{"bad coord", "v a b c\nf 1 2 3\n", "bad coordinate"},
		{"short vertex", "v 1 2\nf 1 2 3\n", "need 3 coordinates"},
		{"nan coord", "v NaN 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "non-finite"},
		{"inf coord", "v 0 0 Inf\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "non-finite"},
		{"neg inf coord", "v 0 -Infinity 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "non-finite"},
		{"nan normal", "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn nan 0 1\nf 1//1 2//1 3//1\n", "non-finite"},
		{"short face", "v 0 0 0\nv 1 0 0\nf 1 2\n", "at least 3"},
		{"index overflow", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "exceeds count"},
		{"zero index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "index 0"},
		{"relative underflow", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -9 1 2\n", "out of range"},
		{"non-integer index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "not an integer"},
		{"float index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.5\n", "not an integer"},
		{"empty vertex slot", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 //\n", "not an integer"},
		{"bad normal index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//9 2//1 3//1\n", "exceeds count"},
		{"zero normal index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//0 2//1 3//1\n", "index 0"},
		{"face before vertices", "f 1 2 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\n", "exceeds count"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestParseErrorLineNumbers pins the diagnostic contract: parse errors
// name the 1-based source line, comments and blanks included, so a bad
// vertex in a 100k-line archive file is findable.
func TestParseErrorLineNumbers(t *testing.T) {
	src := "# header\n\nv 0 0 0\nv bogus 0 0\n"
	_, err := Parse(strings.NewReader(src))
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not name line 4", err)
	}
}

func TestUnknownDirectivesIgnored(t *testing.T) {
	src := `
mtllib cube.mtl
o cube
g side
usemtl steel
s off
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
`
	if _, err := Parse(strings.NewReader(src)); err != nil {
		t.Errorf("unknown directives broke parse: %v", err)
	}
}

// TestWriteRoundTrip pins Write's contract: its output re-Parses to a
// mesh with the same triangles, positions, and normal attachment.
func TestWriteRoundTrip(t *testing.T) {
	for _, src := range []string{cube, `
v 0 0 0
v 1 0 0
v 0 1 0
vn 0 0 1
vn 0 0 1
vn 0 0 1
f 1//1 2//2 3//3
`} {
		m, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round-trip parse: %v\n%s", err, buf.String())
		}
		if len(back.Tris) != len(m.Tris) {
			t.Fatalf("round-trip %d triangles, want %d", len(back.Tris), len(m.Tris))
		}
		for i, tr := range m.Tris {
			bt := back.Tris[i]
			if tr.P0 != bt.P0 || tr.P1 != bt.P1 || tr.P2 != bt.P2 {
				t.Errorf("triangle %d positions drifted", i)
			}
			if (tr.N0 != nil) != (bt.N0 != nil) {
				t.Errorf("triangle %d normal attachment drifted", i)
			}
			if tr.N0 != nil && bt.N0 != nil && *tr.N0 != *bt.N0 {
				t.Errorf("triangle %d normal drifted", i)
			}
		}
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	m, err := Parse(strings.NewReader(cube))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cube.obj")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tris) != len(m.Tris) {
		t.Errorf("round-trip %d triangles, want %d", len(back.Tris), len(m.Tris))
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tri.obj")
	if err := os.WriteFile(path, []byte("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tris) != 1 {
		t.Error("wrong triangle count")
	}
	if _, err := Load(filepath.Join(dir, "missing.obj")); err == nil {
		t.Error("missing file accepted")
	}
}
