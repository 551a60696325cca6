package scenes

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nowrender/internal/anim"
	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the scene pixel golden from the current renderer")

// goldenPath records what every built-in scene and every shipped SDL
// scene looks like, as one SHA-256 per frame. The farm golden covers
// only the farm's test scene and the benchmark's oracle compares a run
// with a reference rendered by the same binary, so this file is what
// catches a tracer kernel change that moves a pixel of a real scene.
const goldenPath = "testdata/golden/scenes-40x32.sha256"

const (
	goldenW, goldenH = 40, 32
	goldenFrames     = 4
)

// goldenScenes returns the scenes the golden covers, keyed by name:
// the built-ins at goldenFrames frames and the SDL files under scenes/
// at their own frame counts (the golden renders their first frames).
func goldenScenes(t *testing.T) map[string]*scene.Scene {
	t.Helper()
	out := map[string]*scene.Scene{
		"newton":      Newton(goldenFrames),
		"bouncing":    Bouncing(goldenFrames),
		"gallery":     Gallery(goldenFrames),
		"meshgallery": MeshGallery(goldenFrames),
		"quickstart":  Quickstart(),
	}
	paths, err := filepath.Glob("../../scenes/*.sdl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped SDL scenes found (%v)", err)
	}
	for _, p := range paths {
		sc, err := FromSpec(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = sc
	}
	return out
}

func hashFrame(img *fb.Framebuffer) string {
	sum := sha256.Sum256(img.Pix)
	return hex.EncodeToString(sum[:])
}

// renderPlain renders frames [0, n) by brute force on the tile pool.
func renderPlain(t *testing.T, sc *scene.Scene, n, threads int) []string {
	t.Helper()
	out := make([]string, n)
	for f := 0; f < n; f++ {
		ft, err := trace.New(sc, f, trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		img := fb.New(goldenW, goldenH)
		ft.RenderRegionParallelWorkers(img, fb.NewRect(0, 0, goldenW, goldenH), threads, -1, nil, ft.NewWorker)
		out[f] = hashFrame(img)
	}
	return out
}

// renderCoherent renders frames [0, n) with one coherence engine per
// camera-stationary sequence.
func renderCoherent(t *testing.T, sc *scene.Scene, n, threads int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for _, seq := range anim.SplitSequences(sc) {
		if seq.Start >= n {
			break
		}
		end := min(seq.End, n)
		e, err := coherence.NewEngine(sc, goldenW, goldenH, fb.NewRect(0, 0, goldenW, goldenH),
			seq.Start, end, coherence.Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for f := seq.Start; f < end; f++ {
			img := fb.New(goldenW, goldenH)
			if _, err := e.RenderFrame(f, img); err != nil {
				t.Fatal(err)
			}
			out = append(out, hashFrame(img))
		}
	}
	return out
}

func readSceneGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (run `go test ./internal/scenes -run Golden -update` to create it): %v", err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("golden line %q malformed", line)
		}
		want[fields[0]] = append(want[fields[0]], fields[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeSceneGolden(t *testing.T, got map[string][]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "# SHA-256 of packed RGB rows at %dx%d: scene, frame, hash. Built-ins at %d frames,\n",
		goldenW, goldenH, goldenFrames)
	fmt.Fprintf(&b, "# SDL files their first %d frames. Plain and coherent renders, Threads 1 and 8, all match.\n",
		goldenFrames)
	for _, name := range names {
		for f, h := range got[name] {
			fmt.Fprintf(&b, "%s %d %s\n", name, f, h)
		}
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScenesGolden pins every shipped scene's pixels across sessions:
// the brute-force tracer at Threads 1 and 8, and the coherence engine at
// both over each camera-stationary sequence, must hash to the committed
// golden frame for frame. A deliberate renderer change regenerates it
// with `go test ./internal/scenes -run Golden -update` and says why.
func TestScenesGolden(t *testing.T) {
	scenes := goldenScenes(t)
	got := map[string][]string{}
	for name, sc := range scenes {
		got[name] = renderPlain(t, sc, min(goldenFrames, sc.Frames), 1)
	}
	if *updateGolden {
		writeSceneGolden(t, got)
		t.Logf("golden file %s rewritten (%d scenes)", goldenPath, len(got))
	}
	want := readSceneGolden(t)
	if len(want) != len(scenes) {
		t.Errorf("golden file holds %d scenes, want %d", len(want), len(scenes))
	}
	for name, sc := range scenes {
		n := min(goldenFrames, sc.Frames)
		runs := map[string][]string{
			"plain/threads=1":    got[name],
			"plain/threads=8":    renderPlain(t, sc, n, 8),
			"coherent/threads=1": renderCoherent(t, sc, n, 1),
			"coherent/threads=8": renderCoherent(t, sc, n, 8),
		}
		for label, hashes := range runs {
			if len(hashes) != len(want[name]) {
				t.Errorf("%s %s: %d frames, golden has %d", name, label, len(hashes), len(want[name]))
				continue
			}
			for f, h := range hashes {
				if h != want[name][f] {
					t.Errorf("%s %s frame %d: hash %s != golden %s", name, label, f, h[:12], want[name][f][:12])
				}
			}
		}
	}
}
