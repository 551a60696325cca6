package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nowrender/internal/experiments"
	"nowrender/internal/fb"
	"nowrender/internal/imgdiff"
	"nowrender/internal/scenes"
	"nowrender/internal/tga"
)

// diffFlags declares `now diff`, which reproduces Figure 2 of the paper
// for any animation, or with -a and -b diffs two TGA files. It follows
// diff(1)'s exit convention, so it can gate scripts and CI: 0 when the
// images are identical, 1 when they differ, 2 on error.
func diffFlags(fs *flag.FlagSet) runFunc {
	sceneSpec := fs.String("scene", "bouncing", usage["scene"])
	frame := fs.Int("frame", 0, "first frame of the pair to compare")
	sz := sizeFlag(fs)
	outDir := fs.String("out", "", usage["out"])
	fileA := fs.String("a", "", "file mode: first TGA file")
	fileB := fs.String("b", "", "file mode: second TGA file")

	return func(_ context.Context, _ []string, stdout, _ io.Writer) error {
		if *fileA != "" || *fileB != "" {
			return diffFiles(stdout, *fileA, *fileB, *outDir)
		}
		sc, err := scenes.FromSpec(*sceneSpec)
		if err != nil {
			return err
		}
		return figure2(stdout, experiments.Params{Scene: sc, W: sz.w, H: sz.h}, *frame, *outDir)
	}
}

// diffFiles compares two TGA files and returns errDiffer when any pixel
// differs.
func diffFiles(stdout io.Writer, a, b, outDir string) error {
	if a == "" || b == "" {
		return usagef("both -a and -b are required")
	}
	imgA, err := tga.ReadFile(a)
	if err != nil {
		return err
	}
	imgB, err := tga.ReadFile(b)
	if err != nil {
		return err
	}
	mask, err := imgdiff.Diff(imgA, imgB)
	if err != nil {
		return err
	}
	st, err := imgdiff.Compare(imgA, imgB)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s vs %s: %d differing pixels (%.1f%%), max delta %d, PSNR %.1f dB\n",
		a, b, st.Differing, 100*mask.Fraction(), st.MaxChannelDelta, st.PSNR)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := tga.WriteFile(filepath.Join(outDir, "diff-actual.tga"), mask.Image()); err != nil {
			return err
		}
	}
	if st.Differing > 0 {
		return errDiffer
	}
	return nil
}

// figure2 compares frames frame and frame+1 of p.Scene: the actual
// differences between the fully rendered frames (Figure 2(a)) and the
// differences the coherence engine predicts, its dirty mask (Figure
// 2(b)). It reports how conservative the prediction is and, with outDir
// set, writes both frames and both masks there.
func figure2(stdout io.Writer, p experiments.Params, frame int, outDir string) error {
	if frame < 0 || frame+1 >= p.Scene.Frames {
		return usagef("-frame %d: want a frame with a successor (0..%d)", frame, p.Scene.Frames-2)
	}
	res, err := experiments.Figure2(p, frame)
	if err != nil {
		return err
	}
	actual, predicted := res.Actual, res.Predicted
	fmt.Fprintf(stdout, "scene %s, frames %d -> %d (%dx%d)\n", p.Scene.Name, frame, frame+1, p.W, p.H)
	fmt.Fprintf(stdout, "  (a) actual differences:    %6d pixels (%.1f%%)\n", actual.Count(), 100*actual.Fraction())
	fmt.Fprintf(stdout, "  (b) predicted (dirty set): %6d pixels (%.1f%%)\n", predicted.Count(), 100*predicted.Fraction())
	if predicted.Covers(actual) {
		fmt.Fprintf(stdout, "  prediction is a superset of the actual change (+%d conservative pixels)\n",
			predicted.Count()-actual.Count())
	} else {
		fmt.Fprintf(stdout, "  WARNING: prediction misses changed pixels — coherence violated\n")
	}
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	images := map[string]*fb.Framebuffer{
		"fig1-frameA.tga":     res.FrameA,
		"fig1-frameB.tga":     res.FrameB,
		"fig2a-actual.tga":    actual.Image(),
		"fig2b-predicted.tga": predicted.Image(),
	}
	for name, img := range images {
		if err := tga.WriteFile(filepath.Join(outDir, name), img); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "  wrote %d images to %s\n", len(images), outDir)
	return nil
}
