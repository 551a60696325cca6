package farm

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/partition"
	"nowrender/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden frame hashes from the current renderer")

const goldenFrames = 6

// goldenPath is the committed record of what the test animation looks
// like, as one SHA-256 per frame. Every farm mode under every scheme must
// reproduce these bytes exactly — the golden file is the cross-session
// anchor that catches a renderer change the purely relative tests
// (farm-vs-reference in the same binary) cannot see.
const goldenPath = "testdata/golden/farm-scene-40x32.sha256"

func frameHash(img *fb.Framebuffer) string {
	sum := sha256.Sum256(wire.ExtractRegion(img, fb.NewRect(0, 0, fw, fh)))
	return hex.EncodeToString(sum[:])
}

func hashFrames(frames []*fb.Framebuffer) []string {
	out := make([]string, len(frames))
	for i, img := range frames {
		out[i] = frameHash(img)
	}
	return out
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (run `go test -run Golden -update` to create it): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("golden line %q malformed", line)
		}
		want = append(want, fields[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGolden(t *testing.T, hashes []string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# SHA-256 of packed RGB rows, farmScene(%d) at %dx%d, one line per frame.\n",
		goldenFrames, fw, fh)
	for i, h := range hashes {
		fmt.Fprintf(&b, "%d %s\n", i, h)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenImages pins the rendered output across sessions: the plain
// tracer and every farm driver/scheme/coherence combination must hash to
// the committed goldens. A legitimate renderer change regenerates them
// with `go test ./internal/farm -run Golden -update`.
func TestGoldenImages(t *testing.T) {
	sc := farmScene(goldenFrames)
	ref := referenceFrames(t, sc)
	refHashes := hashFrames(ref)

	if *updateGolden {
		writeGolden(t, refHashes)
		t.Logf("golden file %s rewritten (%d frames)", goldenPath, len(refHashes))
	}
	want := readGolden(t)
	if len(want) != goldenFrames {
		t.Fatalf("golden file has %d hashes, want %d", len(want), goldenFrames)
	}
	for i, h := range refHashes {
		if h != want[i] {
			t.Errorf("reference render frame %d hash %s != golden %s", i, h[:12], want[i][:12])
		}
	}
	if t.Failed() {
		t.Fatal("reference drifted from goldens; if intentional, rerun with -update")
	}

	schemes := []partition.Scheme{
		{Sequence: true, Adaptive: true},
		{BlockW: 16, BlockH: 16, Adaptive: true},
		{BlockW: 20, BlockH: 16, Sequence: true},
	}
	for _, coh := range []bool{false, true} {
		for _, sch := range schemes {
			label := fmt.Sprintf("virtual/%s/coherence=%v", sch.Name(), coh)
			res, err := RenderVirtual(Config{Scene: sc, W: fw, H: fh, Scheme: sch, Coherence: coh})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, h := range hashFrames(res.Frames) {
				if h != want[i] {
					t.Errorf("%s: frame %d hash mismatch", label, i)
				}
			}
		}
	}
	// One local-driver pass over the full wire protocol.
	res, err := RenderLocal(Config{
		Scene: sc, W: fw, H: fh, Coherence: true, Workers: 3,
		Scheme: partition.Scheme{BlockW: 16, BlockH: 16, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hashFrames(res.Frames) {
		if h != want[i] {
			t.Errorf("local driver: frame %d hash mismatch", i)
		}
	}
}
