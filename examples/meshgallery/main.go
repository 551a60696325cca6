// Meshgallery renders the large-mesh object-space stress scene: nine
// baked instances of a procedural heightfield tile on pedestals. The
// tile is loaded from scenes/gallery-tile.obj when present (falling back
// to the builtin generator, which produces identical geometry), so this
// example doubles as the OBJ-pipeline demo. With -shards it renders
// through the object-space partition and reports forwarding traffic;
// -emit-obj regenerates the committed OBJ file.
//
//	go run ./examples/meshgallery -out meshgallery-out/
//	go run ./examples/meshgallery -shards 4
//	go run ./examples/meshgallery -emit-obj scenes/gallery-tile.obj
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nowrender"
	"nowrender/internal/objfile"
	"nowrender/internal/objspace"
	"nowrender/internal/scenes"
	"nowrender/internal/trace"
)

func main() {
	var (
		frames  = flag.Int("frames", 8, "animation length")
		width   = flag.Int("w", 160, "width")
		height  = flag.Int("h", 120, "height")
		shards  = flag.Int("shards", 0, "object-space shard count (0 = replicated)")
		objPath = flag.String("obj", "scenes/gallery-tile.obj", "tile mesh OBJ (missing = builtin generator)")
		emitOBJ = flag.String("emit-obj", "", "write the procedural tile mesh to this OBJ path and exit")
		outDir  = flag.String("out", "", "output directory for frame TGAs (empty = stats only)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "meshgallery: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *emitOBJ != "" {
		if err := objfile.WriteFile(*emitOBJ, scenes.MeshGalleryTile()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *emitOBJ)
		return
	}
	if err := run(*frames, *width, *height, *shards, *objPath, *outDir); err != nil {
		log.Fatal(err)
	}
}

func run(frames, w, h, shards int, objPath, outDir string) error {
	tile := scenes.MeshGalleryTile()
	source := "builtin generator"
	if m, err := objfile.Load(objPath); err == nil {
		tile, source = m, objPath
	}
	sc := scenes.MeshGalleryFrom(tile, frames)
	fmt.Printf("meshgallery: %d frames at %dx%d, tile from %s (%d tris, %d instances baked)\n",
		frames, w, h, source, len(tile.Tris), 9)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	start := time.Now()
	var stats objspace.Stats
	for f := 0; f < sc.Frames; f++ {
		img := nowrender.NewFramebuffer(w, h)
		if shards >= 2 {
			cl, err := objspace.Build(sc, f, trace.Options{}, objspace.Options{Shards: shards})
			if err != nil {
				return err
			}
			cl.WorkersFor(&stats)(nil).RenderFull(img)
		} else {
			frame, err := nowrender.RenderFrame(sc, f, w, h)
			if err != nil {
				return err
			}
			img = frame
		}
		if outDir != "" {
			if err := nowrender.WriteTGA(filepath.Join(outDir, fmt.Sprintf("frame%04d.tga", f)), img); err != nil {
				return err
			}
		}
	}
	fmt.Printf("rendered %d frames in %v\n", sc.Frames, time.Since(start).Round(time.Millisecond))
	if shards >= 2 {
		snap := stats.Snapshot()
		fmt.Printf("object space: %s\n", snap.String())
		for i, sh := range snap.PerShard {
			fmt.Printf("  shard %d: %d objs, %d tris, %d resident bytes, %d rays forwarded (%d bytes)\n",
				i, sh.Objects, sh.Tris, sh.ResidentBytes, sh.RaysForwarded, sh.ForwardBytes)
		}
	}
	if outDir != "" {
		fmt.Printf("frames written to %s\n", outDir)
	}
	return nil
}
