// Bouncing reproduces Figures 1 and 2 of the paper with the
// glass-ball-in-a-brick-room animation: it renders two consecutive
// frames (Figure 1), the actual pixel-difference mask between them
// (Figure 2(a)), and the difference mask predicted by the
// frame-coherence algorithm (Figure 2(b)), asserting the superset
// property that makes coherent rendering exact.
//
//	go run ./examples/bouncing -frame 4 -out bounce-out/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nowrender"
)

func main() {
	var (
		frame  = flag.Int("frame", 4, "first frame of the compared pair")
		frames = flag.Int("frames", 30, "animation length")
		width  = flag.Int("w", 240, "width")
		height = flag.Int("h", 320, "height")
		outDir = flag.String("out", "bounce-out", "output directory")
	)
	flag.Parse()
	if err := run(*frame, *frames, *width, *height, *outDir); err != nil {
		log.Fatal(err)
	}
}

func run(frame, frames, w, h int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sc := nowrender.BouncingScene(frames)
	if frame+1 >= frames {
		return fmt.Errorf("frame %d out of range", frame)
	}

	// Figure 1: two consecutive frames, fully rendered.
	var pair [2]*nowrender.Framebuffer
	for i := 0; i < 2; i++ {
		img, err := nowrender.RenderFrame(sc, frame+i, w, h)
		if err != nil {
			return err
		}
		pair[i] = img
		name := filepath.Join(outDir, fmt.Sprintf("fig1-frame%02d.tga", frame+i))
		if err := nowrender.WriteTGA(name, img); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}

	// Figure 2(a): actual pixel differences.
	actual, err := nowrender.DiffFrames(pair[0], pair[1])
	if err != nil {
		return err
	}
	if err := nowrender.WriteTGA(filepath.Join(outDir, "fig2a-actual.tga"), actual.Image()); err != nil {
		return err
	}

	// Figure 2(b): the coherence algorithm's prediction. Run the engine
	// through frame `frame` and take its dirty mask for frame+1.
	full := nowrender.NewRect(0, 0, w, h)
	eng, err := nowrender.NewCoherenceEngine(sc, w, h, full, 0, frames, nowrender.CoherenceOptions{})
	if err != nil {
		return err
	}
	for f := 0; f <= frame; f++ {
		if _, err := eng.Render(f); err != nil {
			return err
		}
	}
	predicted, err := nowrender.MaskFromDirty(eng.DirtyMask(), full, w, h)
	if err != nil {
		return err
	}
	if err := nowrender.WriteTGA(filepath.Join(outDir, "fig2b-predicted.tga"), predicted.Image()); err != nil {
		return err
	}

	fmt.Printf("\nframes %d -> %d:\n", frame, frame+1)
	fmt.Printf("  actual change:    %6d pixels (%.1f%%)\n", actual.Count(), 100*actual.Fraction())
	fmt.Printf("  predicted change: %6d pixels (%.1f%%)\n", predicted.Count(), 100*predicted.Fraction())
	if predicted.Covers(actual) {
		fmt.Println("  the prediction covers every actually-changed pixel — coherent")
		fmt.Println("  rendering is pixel-exact while skipping the rest of the image")
	} else {
		fmt.Println("  WARNING: prediction misses changes (should never happen)")
	}
	return nil
}
