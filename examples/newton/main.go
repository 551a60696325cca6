// Newton renders the paper's §4 workload — the Newton's-cradle animation
// (one plane, five chrome spheres, sixteen cylinders) — in three ways:
//
//  1. a single frame (default 22, reproducing Figure 5),
//
//  2. the whole animation on one processor with frame coherence,
//     printing the per-frame render/copy economy,
//
//  3. the whole animation on the virtual 3-workstation NOW with frame
//     division, printing the parallel statistics.
//
//     go run ./examples/newton -frame 22 -out out/
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
		frame  = flag.Int("frame", 22, "frame for the single-frame render (Figure 5)")
		frames = flag.Int("frames", 45, "animation length")
		width  = flag.Int("w", 240, "width")
		height = flag.Int("h", 320, "height")
		outDir = flag.String("out", "newton-out", "output directory")
		anim   = flag.Bool("anim", false, "render the full animation too (slower)")
	)
	flag.Parse()
	if err := run(*frame, *frames, *width, *height, *outDir, *anim); err != nil {
		log.Fatal(err)
	}
}

func run(frame, frames, w, h int, outDir string, anim bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sc := nowrender.NewtonScene(frames)

	// 1. Figure 5: a single frame.
	img, err := nowrender.RenderFrame(sc, frame, w, h)
	if err != nil {
		return err
	}
	name := filepath.Join(outDir, fmt.Sprintf("fig5-frame%02d.tga", frame))
	if err := nowrender.WriteTGA(name, img); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%dx%d)\n", name, w, h)
	if !anim {
		fmt.Println("run with -anim to render the full animation")
		return nil
	}

	// 2. Single processor with frame coherence.
	fmt.Printf("\nrendering %d frames with frame coherence (single processor)...\n", frames)
	rendered, copied := 0, 0
	eng, err := nowrender.NewCoherenceEngine(sc, w, h,
		nowrender.NewRect(0, 0, w, h), 0, frames, nowrender.CoherenceOptions{})
	if err != nil {
		return err
	}
	for f := 0; f < frames; f++ {
		buf := nowrender.NewFramebuffer(w, h)
		rep, err := eng.RenderFrame(f, buf)
		if err != nil {
			return err
		}
		rendered += rep.Rendered
		copied += rep.Copied
		if err := nowrender.WriteTGA(
			filepath.Join(outDir, fmt.Sprintf("frame%04d.tga", f)), buf); err != nil {
			return err
		}
	}
	total := rendered + copied
	fmt.Printf("pixels traced: %d of %d (%.0f%% copied from previous frames)\n",
		rendered, total, 100*float64(copied)/float64(total))

	// 3. The virtual NOW with frame division.
	fmt.Println("\nrendering on the virtual 3-workstation NOW (frame division + FC)...")
	res, err := nowrender.RenderFarmVirtual(nowrender.FarmConfig{
		Scene: sc, W: w, H: h, Coherence: true,
		Scheme: nowrender.PartitionScheme{BlockW: 80, BlockH: 80, Adaptive: true},
	})
	if err != nil {
		return err
	}
	fmt.Printf("virtual makespan: %v over %d tasks (%d adaptive splits)\n",
		res.Makespan, res.TasksExecuted, res.Subdivisions)
	for _, ws := range res.Workers {
		fmt.Printf("  %-12s pixels=%-8d busy=%v\n", ws.Worker, ws.PixelsDone, ws.Busy)
	}
	return nil
}
