package nowrender_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"nowrender"
)

func TestPublicQuickstartFlow(t *testing.T) {
	sc := nowrender.QuickstartScene()
	img, err := nowrender.RenderFrame(sc, 0, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 64 || img.H != 48 {
		t.Fatalf("image %dx%d", img.W, img.H)
	}
	// Round trip through the TGA encoder.
	var buf bytes.Buffer
	if err := nowrender.EncodeTGA(&buf, img); err != nil {
		t.Fatal(err)
	}
	back, err := nowrender.DecodeTGA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("TGA round trip changed pixels")
	}
	// And through files.
	dir := t.TempDir()
	p := filepath.Join(dir, "f.tga")
	if err := nowrender.WriteTGA(p, img); err != nil {
		t.Fatal(err)
	}
	back2, err := nowrender.ReadTGA(p)
	if err != nil {
		t.Fatal(err)
	}
	if !back2.Equal(img) {
		t.Error("file round trip changed pixels")
	}
}

func TestPublicSceneBuilding(t *testing.T) {
	sc := nowrender.NewScene("api")
	sc.Frames = 3
	sc.Add("ball", nowrender.NewSphere(nowrender.V(0, 1, 0), 1),
		nowrender.Matte(nowrender.RGB(1, 0, 0)),
		nowrender.KeyframeTrack{Keys: []nowrender.Keyframe{
			{Frame: 0, Pos: nowrender.V(0, 0, 0)},
			{Frame: 2, Pos: nowrender.V(2, 0, 0)},
		}})
	sc.Add("floor", nowrender.NewPlane(nowrender.V(0, 1, 0), 0),
		nowrender.Matte(nowrender.RGB(1, 1, 1)), nil)
	sc.AddLight("key", nowrender.V(4, 8, 6), nowrender.RGB(1, 1, 1))
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	run, err := nowrender.RenderAnimation(sc, 32, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Frames) != 3 {
		t.Errorf("%d frame stats", len(run.Frames))
	}
	totals := run.TotalRays()
	if totals.Total() == 0 {
		t.Error("no rays traced")
	}
}

func TestPublicParseScene(t *testing.T) {
	sc, err := nowrender.ParseScene("t", `
		camera { location <0,1,5> look_at <0,0,0> }
		light_source { <3,6,4> color rgb <1,1,1> }
		sphere { <0,0,0>, 1 pigment { color rgb <0,1,0> } }
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nowrender.RenderFrame(sc, 0, 24, 18)
	if err != nil {
		t.Fatal(err)
	}
	// The green sphere must be visible somewhere.
	found := false
	for y := 0; y < img.H && !found; y++ {
		for x := 0; x < img.W; x++ {
			_, g, _ := img.At(x, y)
			if g > 60 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("green sphere not visible in parsed scene")
	}
}

func TestPublicFarmVirtual(t *testing.T) {
	sc := nowrender.NewtonScene(4)
	res, err := nowrender.RenderFarmVirtual(nowrender.FarmConfig{
		Scene: sc, W: 40, H: 52, Coherence: true,
		Scheme: nowrender.PartitionScheme{BlockW: 20, BlockH: 26, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 4 || res.Makespan <= 0 {
		t.Fatalf("frames=%d makespan=%v", len(res.Frames), res.Makespan)
	}
	// The farm's frames match the single-frame API exactly.
	ref, err := nowrender.RenderFrame(sc, 2, 40, 52)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Frames[2].Equal(ref) {
		t.Error("farm frame differs from direct render")
	}
}

func TestPublicDiffTooling(t *testing.T) {
	sc := nowrender.BouncingScene(4)
	a, err := nowrender.RenderFrame(sc, 0, 32, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nowrender.RenderFrame(sc, 1, 32, 40)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := nowrender.DiffFrames(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Count() == 0 {
		t.Error("no differences between animation frames")
	}
	st, err := nowrender.CompareFrames(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Differing != mask.Count() {
		t.Errorf("stats (%d) disagree with mask (%d)", st.Differing, mask.Count())
	}
}
