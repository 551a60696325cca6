// Command framediff reproduces Figure 2 of the paper for any animation:
// for a pair of consecutive frames it renders
//
//   - the actual pixel differences between the fully rendered frames
//     (Figure 2(a)), and
//   - the differences as predicted by the frame-coherence algorithm —
//     the dirty mask (Figure 2(b)),
//
// and reports how conservative the prediction is. With -a/-b it can
// also diff two already-rendered TGA files instead.
//
//	framediff -scene bouncing -frame 4 -out diffs/
//	framediff -a frame0004.tga -b frame0005.tga -out diffs/
//
// File-diff mode follows the diff(1) exit convention, so it can gate
// scripts and CI: 0 when the images are identical, 1 when they differ,
// 2 on error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/imgdiff"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
)

func main() {
	var (
		sceneSpec = flag.String("scene", "bouncing", "scene spec (see nowrender -h)")
		frame     = flag.Int("frame", 0, "first frame of the pair to compare")
		width     = flag.Int("w", 240, "render width")
		height    = flag.Int("h", 320, "render height")
		outDir    = flag.String("out", "", "directory for mask images (empty = stats only)")
		fileA     = flag.String("a", "", "diff mode: first TGA file")
		fileB     = flag.String("b", "", "diff mode: second TGA file")
	)
	flag.Parse()
	if *fileA != "" || *fileB != "" {
		differ, err := diffFiles(*fileA, *fileB, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "framediff:", err)
			os.Exit(2)
		}
		if differ {
			os.Exit(1)
		}
		return
	}
	if err := diffScene(*sceneSpec, *frame, *width, *height, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "framediff:", err)
		os.Exit(2)
	}
}

// diffFiles compares two TGA files and reports whether any pixel
// differs (the caller maps that onto the diff exit convention).
func diffFiles(a, b, outDir string) (bool, error) {
	if a == "" || b == "" {
		return false, fmt.Errorf("both -a and -b are required")
	}
	imgA, err := tga.ReadFile(a)
	if err != nil {
		return false, err
	}
	imgB, err := tga.ReadFile(b)
	if err != nil {
		return false, err
	}
	mask, err := imgdiff.Diff(imgA, imgB)
	if err != nil {
		return false, err
	}
	st, err := imgdiff.Compare(imgA, imgB)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s vs %s: %d differing pixels (%.1f%%), max delta %d, PSNR %.1f dB\n",
		a, b, st.Differing, 100*mask.Fraction(), st.MaxChannelDelta, st.PSNR)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return false, err
		}
		if err := tga.WriteFile(filepath.Join(outDir, "diff-actual.tga"), mask.Image()); err != nil {
			return false, err
		}
	}
	return st.Differing > 0, nil
}

func diffScene(spec string, frame, w, h int, outDir string) error {
	sc, err := scenes.FromSpec(spec)
	if err != nil {
		return err
	}
	if frame+1 >= sc.Frames {
		return fmt.Errorf("frame %d+1 out of range (%d frames)", frame, sc.Frames)
	}

	// Fully render the two frames for the actual diff (Figure 2(a)).
	var frames []*fb.Framebuffer
	full := fb.NewRect(0, 0, w, h)
	_, err = coherence.FullRender(sc, w, h, full, frame, frame+2, 1,
		func(_ int, img *fb.Framebuffer, _ stats.RayCounters) error {
			frames = append(frames, img.Clone())
			return nil
		})
	if err != nil {
		return err
	}
	actual, err := imgdiff.Diff(frames[0], frames[1])
	if err != nil {
		return err
	}

	// Run the coherence engine up to `frame` to obtain the predicted
	// dirty mask for frame+1 (Figure 2(b)).
	eng, err := coherence.NewEngine(sc, w, h, full, 0, sc.Frames, coherence.Options{})
	if err != nil {
		return err
	}
	for f := 0; f <= frame; f++ {
		if _, err := eng.Render(f); err != nil {
			return err
		}
	}
	predicted, err := imgdiff.MaskFromDirty(eng.DirtyMask(), full, w, h)
	if err != nil {
		return err
	}

	fmt.Printf("scene %s, frames %d -> %d (%dx%d)\n", sc.Name, frame, frame+1, w, h)
	fmt.Printf("  actual differences:    %6d pixels (%.1f%%)\n", actual.Count(), 100*actual.Fraction())
	fmt.Printf("  predicted (dirty set): %6d pixels (%.1f%%)\n", predicted.Count(), 100*predicted.Fraction())
	if predicted.Covers(actual) {
		over := predicted.Count() - actual.Count()
		fmt.Printf("  prediction is a superset of the actual change (+%d conservative pixels)\n", over)
	} else {
		fmt.Printf("  WARNING: prediction misses changed pixels — coherence violated\n")
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		writes := map[string]*fb.Framebuffer{
			fmt.Sprintf("frame%04d.tga", frame):   frames[0],
			fmt.Sprintf("frame%04d.tga", frame+1): frames[1],
			"fig2a-actual-diff.tga":               actual.Image(),
			"fig2b-predicted-diff.tga":            predicted.Image(),
		}
		for name, img := range writes {
			if err := tga.WriteFile(filepath.Join(outDir, name), img); err != nil {
				return err
			}
		}
		fmt.Printf("  wrote %d images to %s\n", len(writes), outDir)
	}
	return nil
}
