package nowrender_test

import (
	"fmt"

	"nowrender"
)

// Example renders a single frame of a programmatically built scene.
func Example() {
	sc := nowrender.NewScene("demo")
	sc.Camera = nowrender.Camera{
		Pos: nowrender.V(0, 1, 5), LookAt: nowrender.V(0, 0.5, 0),
		Up: nowrender.V(0, 1, 0), FOV: 60,
	}
	sc.Add("floor", nowrender.NewPlane(nowrender.V(0, 1, 0), 0),
		nowrender.Matte(nowrender.RGB(0.9, 0.9, 0.9)), nil)
	sc.Add("ball", nowrender.NewSphere(nowrender.V(0, 0.5, 0), 0.5),
		nowrender.Matte(nowrender.RGB(1, 0, 0)), nil)
	sc.AddLight("key", nowrender.V(3, 5, 4), nowrender.RGB(1, 1, 1))

	img, err := nowrender.RenderFrame(sc, 0, 64, 48)
	if err != nil {
		panic(err)
	}
	fmt.Println(img.W, img.H)
	// Output: 64 48
}

// ExampleParseScene parses the POV-style scene description language.
func ExampleParseScene() {
	sc, err := nowrender.ParseScene("sdl", `
		global_settings { frames 10 max_depth 5 }
		camera { location <0, 1, 5> look_at <0, 0, 0> }
		light_source { <3, 5, 4> color rgb <1, 1, 1> }
		sphere { <0, 0.5, 0>, 0.5
			pigment { color rgb <1, 0, 0> }
			animate { keyframe 0 <0,0,0> keyframe 9 <2,0,0> }
		}
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(sc.Frames, len(sc.Objects), sc.Objects[0].MovedBetween(0, 1))
	// Output: 10 1 true
}

// ExampleRenderFarmVirtual runs the paper's render farm on the
// deterministic virtual network of workstations.
func ExampleRenderFarmVirtual() {
	sc := nowrender.NewtonScene(4)
	res, err := nowrender.RenderFarmVirtual(nowrender.FarmConfig{
		Scene: sc, W: 60, H: 80, Coherence: true,
		Scheme:   nowrender.PartitionScheme{BlockW: 30, BlockH: 40, Adaptive: true},
		Machines: nowrender.PaperTestbed(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Frames), res.Makespan > 0)
	// Output: 4 true
}

// ExampleNewCoherenceEngine drives the frame-coherence algorithm frame
// by frame, showing the render/copy economy.
func ExampleNewCoherenceEngine() {
	sc := nowrender.NewtonScene(3)
	eng, err := nowrender.NewCoherenceEngine(sc, 60, 80,
		nowrender.NewRect(0, 0, 60, 80), 0, 3, nowrender.CoherenceOptions{})
	if err != nil {
		panic(err)
	}
	img := nowrender.NewFramebuffer(60, 80)
	for f := 0; f < 3; f++ {
		rep, err := eng.RenderFrame(f, img)
		if err != nil {
			panic(err)
		}
		fmt.Printf("frame %d: first=%v copied-some=%v\n",
			f, rep.Copied == 0, rep.Copied > 0)
	}
	// Output:
	// frame 0: first=true copied-some=false
	// frame 1: first=false copied-some=true
	// frame 2: first=false copied-some=true
}
