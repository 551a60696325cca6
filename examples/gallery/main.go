// Gallery renders the complex museum animation — many primitives, two
// independently moving objects and a camera cut — on the virtual NOW
// with frame coherence. The master tiles each camera-stationary sequence
// (the unit the paper's coherence algorithm requires) on its own, so
// both sequences render in one run.
//
//	go run ./examples/gallery -out gallery-out/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nowrender"
)

func main() {
	var (
		frames = flag.Int("frames", 24, "animation length (cut at the midpoint)")
		width  = flag.Int("w", 160, "width")
		height = flag.Int("h", 120, "height")
		outDir = flag.String("out", "", "output directory for frame TGAs (empty = stats only)")
	)
	flag.Parse()
	if err := run(*frames, *width, *height, *outDir); err != nil {
		log.Fatal(err)
	}
}

func run(frames, w, h int, outDir string) error {
	sc := nowrender.GalleryScene(frames)
	emit := func(f int, img *nowrender.Framebuffer) error { return nil }
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		emit = func(f int, img *nowrender.Framebuffer) error {
			return nowrender.WriteTGA(filepath.Join(outDir, fmt.Sprintf("frame%04d.tga", f)), img)
		}
	}

	fmt.Printf("gallery: %d frames at %dx%d, camera cut at frame %d\n", frames, w, h, frames/2)
	start := time.Now()
	res, err := nowrender.RenderFarmVirtual(nowrender.FarmConfig{
		Scene: sc, W: w, H: h, Coherence: true,
		Scheme: nowrender.PartitionScheme{BlockW: w / 4, BlockH: h / 4, Adaptive: true},
		Emit:   emit,
	})
	if err != nil {
		return err
	}
	total := res.Run.TotalRays()
	fmt.Printf("rendered %d frames in %v wall (%v virtual NOW time)\n",
		len(res.Frames), time.Since(start).Round(time.Millisecond), res.Makespan.Round(time.Millisecond))
	fmt.Printf("rays: %d   tasks: %d   traffic: %d bytes\n",
		total.Total(), res.TasksExecuted, res.BytesTransferred)

	// Show the economy per frame: the two frames after each sequence
	// start are full renders; everything else is mostly copied.
	fullPixels := w * h
	for _, fs := range res.Run.Frames {
		if fs.Frame > 3 && fs.Frame != frames/2 && fs.Frame != frames/2+1 {
			continue
		}
		fmt.Printf("  frame %2d: traced %5d of %d pixels (%.0f%% reused)\n",
			fs.Frame, fs.Rendered, fullPixels,
			100*float64(fs.Copied)/float64(fullPixels))
	}
	if outDir != "" {
		fmt.Printf("frames written to %s\n", outDir)
	}
	return nil
}
