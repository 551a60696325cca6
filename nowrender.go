// Package nowrender is a frame-coherent parallel ray tracer for
// rendering computer animations on a network of workstations — a Go
// reproduction of Davis & Davis, "Rendering Computer Animations on a
// Network of Workstations" (IPPS 1998).
//
// The package re-exports the stable public surface of the internal
// subsystems:
//
//   - Scenes are built programmatically (Scene, Sphere, Plane, ...) or
//     parsed from a POV-style scene description language (ParseScene).
//   - RenderFrame traces one frame; RenderAnimation renders a whole
//     animation with the frame-coherence algorithm on one processor.
//   - RenderFarmVirtual runs the master/worker farm on a deterministic
//     virtual network of workstations (heterogeneous speeds, shared
//     Ethernet); RunWorker is the worker side of its PVM-like message
//     protocol, for workers on real machines.
//   - A PartitionScheme controls how an animation is decomposed, as in
//     §3 of the paper: one block of the frame times one subsequence of
//     the frames per task, which covers sequence division, frame
//     division and their hybrid.
//
// See the examples directory for runnable programs and DESIGN.md for the
// system inventory.
package nowrender

import (
	"nowrender/internal/cluster"
	"nowrender/internal/coherence"
	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/imgdiff"
	"nowrender/internal/material"
	"nowrender/internal/msg"
	"nowrender/internal/objfile"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/sdl"
	"nowrender/internal/service"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// Core math types.
type (
	// Vec3 is a 3-component vector, also used for RGB colours.
	Vec3 = vm.Vec3
	// Ray is a parametric half-line with a kind and recursion depth.
	Ray = vm.Ray
	// AABB is an axis-aligned bounding box.
	AABB = vm.AABB
	// Transform pairs a matrix with its inverse.
	Transform = vm.Transform
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return vm.V(x, y, z) }

// Scene model types.
type (
	// Scene is a complete animation description.
	Scene = scene.Scene
	// Object is an identified scene object.
	Object = scene.Object
	// Light is a point light source.
	Light = scene.Light
	// Camera is a pinhole camera.
	Camera = scene.Camera
	// Track animates an object's transform over frames.
	Track = scene.Track
	// Keyframe is one (frame, position) pair for keyframe tracks.
	Keyframe = scene.Keyframe
	// KeyframeTrack interpolates translation between keyframes.
	KeyframeTrack = scene.KeyframeTrack
	// FuncTrack derives transforms from a function of the frame.
	FuncTrack = scene.FuncTrack
	// Material pairs a pigment with a finish.
	Material = material.Material
	// Finish holds the Phong/Whitted reflectance parameters.
	Finish = material.Finish
	// Pigment maps surface hits to base colours.
	Pigment = material.Pigment
	// Shape is any geometric primitive.
	Shape = geom.Shape
)

// NewScene returns an empty scene with the paper's defaults.
func NewScene(name string) *Scene { return scene.New(name) }

// ParseScene parses POV-style SDL source into a scene.
func ParseScene(name, src string) (*Scene, error) { return sdl.Parse(name, src) }

// Geometry constructors.
var (
	NewSphere       = geom.NewSphere
	NewPlane        = geom.NewPlane
	NewBox          = geom.NewBox
	NewCylinder     = geom.NewCylinder
	NewOpenCylinder = geom.NewOpenCylinder
	NewCone         = geom.NewCone
	NewOpenCone     = geom.NewOpenCone
	NewTorus        = geom.NewTorus
	NewDisc         = geom.NewDisc
	NewTriangle     = geom.NewTriangle
	NewMesh         = geom.NewMesh
	// LoadOBJ reads a triangle mesh from a Wavefront OBJ file.
	LoadOBJ = objfile.Load
	// ParseOBJ reads a triangle mesh from OBJ source.
	ParseOBJ       = objfile.Parse
	NewTransformed = geom.NewTransformed
)

// Material helpers.
var (
	RGB           = material.RGB
	Matte         = material.Matte
	NewMaterial   = material.NewMaterial
	DefaultFinish = material.DefaultFinish
	ChromeFinish  = material.ChromeFinish
	GlassFinish   = material.GlassFinish
)

// Framebuffer and image IO.
type (
	// Framebuffer is a 24-bit RGB image.
	Framebuffer = fb.Framebuffer
	// Rect is a half-open pixel rectangle.
	Rect = fb.Rect
)

// NewFramebuffer returns a black framebuffer.
func NewFramebuffer(w, h int) *Framebuffer { return fb.New(w, h) }

// NewRect returns a pixel rectangle.
func NewRect(x0, y0, x1, y1 int) Rect { return fb.NewRect(x0, y0, x1, y1) }

// Image IO (the paper's 24-bit Targa, plus PPM).
var (
	WriteTGA  = tga.WriteFile
	ReadTGA   = tga.ReadFile
	WritePPM  = tga.WriteFilePPM
	WritePNG  = tga.WriteFilePNG
	EncodeTGA = tga.Encode
	DecodeTGA = tga.Decode
	// ToImage adapts a framebuffer to the stdlib image.Image interface.
	ToImage = tga.ToImage
	// FromImage copies any image.Image into a framebuffer.
	FromImage = tga.FromImage
)

// RenderFrame renders one frame of a scene at the given resolution.
func RenderFrame(sc *Scene, frame, w, h int) (*Framebuffer, error) {
	ft, err := trace.New(sc, frame, trace.Options{})
	if err != nil {
		return nil, err
	}
	img := fb.New(w, h)
	ft.RenderFull(img)
	return img, nil
}

// CoherenceEngine is the frame-coherence renderer of §2.
type CoherenceEngine = coherence.Engine

// CoherenceOptions tune the engine.
type CoherenceOptions = coherence.Options

// FrameReport describes one coherently rendered frame.
type FrameReport = coherence.FrameReport

// NewCoherenceEngine prepares a coherence engine over a pixel region and
// frame range of a scene.
func NewCoherenceEngine(sc *Scene, w, h int, region Rect, start, end int, opts CoherenceOptions) (*CoherenceEngine, error) {
	return coherence.NewEngine(sc, w, h, region, start, end, opts)
}

// RenderAnimation renders the whole animation on one processor with the
// frame-coherence algorithm, invoking emit per frame.
func RenderAnimation(sc *Scene, w, h int, emit func(frame int, img *Framebuffer) error) (RunStats, error) {
	eng, err := coherence.NewEngine(sc, w, h, fb.NewRect(0, 0, w, h), 0, sc.Frames, coherence.Options{})
	if err != nil {
		return RunStats{}, err
	}
	return eng.RenderSequence(func(f int, img *fb.Framebuffer, _ coherence.FrameReport) error {
		if emit == nil {
			return nil
		}
		return emit(f, img)
	})
}

// Partitioning schemes (§3).
type (
	// PartitionScheme decomposes an animation into block x subsequence
	// tasks: {Sequence: true} is sequence division, {BlockW, BlockH}
	// frame division, both together the hybrid.
	PartitionScheme = partition.Scheme
	// Task is one assignable unit of work.
	Task = partition.Task
)

// Machine describes one workstation of the virtual NOW (relative speed,
// memory).
type Machine = cluster.Machine

// PaperTestbed returns the paper's 3-machine SGI cluster.
func PaperTestbed() []Machine { return cluster.PaperTestbed() }

// UniformCluster returns n identical machines.
func UniformCluster(n int, speed float64, memMB int) []Machine {
	return cluster.Uniform(n, speed, memMB)
}

// Farm types.
type (
	// FarmConfig describes a render-farm run.
	FarmConfig = farm.Config
	// FarmResult summarises a run.
	FarmResult = farm.Result
	// RunStats aggregates per-frame statistics.
	RunStats = stats.RunStats
	// RayCounters tallies rays by kind.
	RayCounters = stats.RayCounters
	// WorkerOptions tune the local side of a worker.
	WorkerOptions = farm.WorkerOptions
)

// RenderFarmVirtual runs the farm on the deterministic virtual NOW.
func RenderFarmVirtual(cfg FarmConfig) (*FarmResult, error) { return farm.RenderVirtual(cfg) }

// RunWorker executes the slave side of the farm protocol over a
// connection to a master (cmd/nowrender -mode master) until shutdown; on
// cancellation the worker finishes its in-flight frame, tells the master
// where it stopped, and exits. See cmd/nowworker.
var RunWorker = farm.RunWorkerWithOptions

// Render-job service (long-lived server above the farm): a priority job
// queue with bounded concurrency, a content-addressed frame cache, and
// an HTTP API with per-frame progress streaming; see cmd/nowserve and
// examples/renderservice.
type (
	// Service is the long-lived render-job service.
	Service = service.Service
	// ServiceConfig tunes a Service.
	ServiceConfig = service.Config
	// JobSpec describes one render request.
	JobSpec = service.JobSpec
	// JobStatus is a job's externally visible snapshot.
	JobStatus = service.Status
	// JobState is a job's lifecycle phase.
	JobState = service.State
	// JobEvent is one progress event on a job's SSE stream.
	JobEvent = service.Event
)

// NewService returns a ready render-job service; serve its Handler over
// HTTP and Close it on shutdown.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// MsgConn is a bidirectional message pipe, the PVM stand-in.
type MsgConn = msg.Conn

// MsgDial connects to a master over TCP, for RunWorker.
var MsgDial = msg.Dial

// Image comparison (Figure 2 tooling).
type (
	// DiffMask is a per-pixel boolean image.
	DiffMask = imgdiff.Mask
	// DiffStats summarises a frame comparison.
	DiffStats = imgdiff.Stats
)

// Diff helpers.
var (
	DiffFrames    = imgdiff.Diff
	CompareFrames = imgdiff.Compare
	MaskFromDirty = imgdiff.MaskFromDirty
)

// Built-in scenes (the paper's workloads).
var (
	// NewtonScene builds the Newton's-cradle animation of §4.
	NewtonScene = scenes.Newton
	// BouncingScene builds the glass-ball-in-brick-room animation of
	// Figures 1-2.
	BouncingScene = scenes.Bouncing
	// GalleryScene builds the complex museum animation with a camera
	// cut (the §5 "large, complex animations" direction).
	GalleryScene = scenes.Gallery
	// MeshGalleryScene builds the large-mesh object-space stress scene:
	// nine baked instances of a procedural heightfield tile.
	MeshGalleryScene = scenes.MeshGallery
	// MeshGalleryTile generates the gallery's exhibit mesh (the source
	// of scenes/gallery-tile.obj).
	MeshGalleryTile = scenes.MeshGalleryTile
	// QuickstartScene is a tiny single-frame scene.
	QuickstartScene = scenes.Quickstart
)
