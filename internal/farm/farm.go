// Package farm is the master/worker render farm of §3-4: a master
// decomposes the animation with a partitioning scheme, distributes tasks
// to workers, collects rendered pixels, assembles frames and writes them
// out. The only communication is master<->worker (the paper: "the slaves
// themselves do not need to communicate with each other").
//
// The master is a state machine: one struct (master) holding what it
// knows of every worker, the queue, the assembly and the tallies, with
// one method per event — hello, frame result, frame ack, object-space
// stats, task done, truncate ack, pong, a worker's loss, a sink message,
// a heartbeat tick. runMaster steps it through the link's events until
// every frame is in, checking its invariants after each. The worker is
// one too (worker.go). Each driver builds a link and calls runMaster;
// links differ only in names, Recv, Send, Detach and a clock under the
// master, and in the host under the worker:
//
//   - RunMaster and RenderLocal supply a msg.Hub on the wall clock, a
//     ticker and, for RenderLocal, Config.Faults at each worker's pipe.
//   - RenderVirtual supplies the deterministic virtual NOW
//     (internal/cluster): each machine hosts the worker inline, charged
//     per work quantity and real encoded message, with ticks and faults
//     on the virtual clock. Table 1 and the chaos tests run on it.
package farm

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/objspace"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// Config describes a render-farm run.
type Config struct {
	Scene *scene.Scene
	// W, H is the output resolution (the paper uses 240x320).
	W, H int
	// Scheme decomposes the animation. The zero Scheme defaults to
	// adaptive sequence division.
	Scheme partition.Scheme
	// StartFrame and EndFrame select a sub-range [StartFrame, EndFrame)
	// of the animation; both zero means the whole animation.
	StartFrame, EndFrame int
	// Coherence enables the frame-coherence algorithm inside each task.
	Coherence bool
	// AAThreshold is the tracer's adaptive antialiasing threshold in
	// [0, 1] (0 = off); it travels in every task message and reaches the
	// pixels on every driver, coherence on or off.
	AAThreshold float64
	// Samples is the supersampling factor (0/1 = one ray per pixel).
	Samples int
	// Threads bounds each worker's intra-frame tile pool. 0 lets every
	// worker use all its cores (runtime.NumCPU()); 1 forces the serial
	// path. Output is byte-identical for every value — Threads changes
	// wall-clock speed only, and has no effect on virtual-NOW makespans
	// (the cost model charges per ray, not per core).
	Threads int

	// Machines populate the virtual NOW (RenderVirtual), on the paper's
	// Ethernet. Defaults to the paper's 3-machine testbed.
	Machines []cluster.Machine

	// Workers is the goroutine count for RenderLocal. Defaults to the
	// machine count, or 3.
	Workers int

	// Ctx, when non-nil, cancels the run: the drivers check it between
	// events (virtual) or messages (local/TCP) and return Ctx.Err()
	// promptly once it is done. A nil Ctx never cancels.
	Ctx context.Context

	// OnFrame, when non-nil, observes each frame the moment it completes
	// assembly — in completion order, which under frame division may
	// differ from frame order — rather than only after the whole run.
	// The framebuffer is fully assembled and is retained by the farm in
	// Result.Frames, so observers must not modify it. A non-nil error
	// aborts the run.
	OnFrame func(frame int, img *fb.Framebuffer) error

	// Liveness, when > 0, is the one deadline of failure detection, D:
	// the master pings each worker every D/4 (at least 1 ms), retires a
	// worker silent for D (an unjoined one counts as silent since t=0),
	// and retires one holding a task for D without progress (frame
	// results, task completion, acks) — the hung worker and the lost
	// TagTask, which leave the holder answering pings for ever. Workers
	// answer pings and report progress only between frames, so D must
	// comfortably exceed the slowest frame's render time. 0 turns all of
	// it off: no pings, no ticks, no worker retired for silence. On the
	// virtual NOW the ticks fall on the virtual clock.
	Liveness time.Duration
	// Speculate re-issues the slowest in-flight task's remaining frames
	// to idle workers near the end of the run; whichever copy delivers a
	// (frame, region) first wins and the duplicate is dropped.
	Speculate bool
	// Faults, when non-nil, injects this plan's faults into every
	// worker's traffic (see internal/faulty): at each worker's end of its
	// pipe under RenderLocal, on the virtual clock under RenderVirtual. A
	// worker the plan can fault dying is then expected, not a run
	// failure; a protected one's error still fails it. A plan that can
	// lose a TagTask needs Liveness, or the master waits on the task for
	// ever (the virtual NOW then fails as idle). RunMaster cannot
	// reach the caller's connections, which each `now worker -chaos` wraps.
	Faults *faulty.Plan

	// WireDelta makes workers ship dirty-span delta frames after each
	// task's key-frame instead of full regions (coherence tasks only; a
	// size guard falls back to full frames when too much changed).
	// WireSpanCodec makes them compress frame payloads with the span
	// codec (msg.SpanCompress), keeping the raw payload whenever the
	// codec fails to shrink it. Pixels are byte-identical either way.
	WireDelta, WireSpanCodec bool

	// ObjSpaceShards, when >= 2, turns on object-space data parallelism
	// (internal/objspace): each frame's scene is partitioned into that
	// many spatial shards and rays are forwarded between shard owners
	// instead of every worker holding a replicated grid, shrinking
	// per-worker resident scene size. Pixels are byte-identical to the
	// replicated path. Workers ship their forwarding counters
	// (TagOSStats) at task end, merged into Result.ObjSpace.
	ObjSpaceShards int

	// DFB, when non-nil, enables the distributed framebuffer on
	// RenderLocal: frames are sharded across in-process compositor sinks
	// (internal/compositor), workers ship pixels straight to their
	// frame's sink and send the master only small control acks, and a
	// worker that cannot reach its sink falls back to master-routed
	// results, which the master relays to the owning sink so assembly
	// happens in exactly one place. Final frames are byte-identical to
	// the master-routed path. The virtual NOW and RunMaster over TCP,
	// master-routed, ignore it.
	DFB *DFBConfig

	// Timeline, when non-nil, records the run into this recorder: the
	// master's scheduling events land in it directly, and workers ship
	// their phase/tile spans piggybacked on results (capWireTimeline).
	// The merged, clock-offset-corrected cluster timeline is returned in
	// Result.Timeline. On the virtual NOW the recorder is switched to the
	// virtual clock and the machines' frame/send spans are written
	// straight into it. Nil (the default) disables all recording — the
	// instrumentation then costs one nil check per site.
	Timeline *timeline.Recorder
}

// DFBConfig configures the distributed framebuffer (compositor sinks).
type DFBConfig struct {
	// Sinks > 0 makes RenderLocal spin up this many in-process sinks, at
	// most one per frame.
	Sinks int
	// addrs are the sink addresses, one frame shard per sink in
	// partition.ShardMap order; RenderLocal sets them.
	addrs []string
	// dial connects to a sink address. RenderLocal sets the in-process
	// registry's dialer unless a test has set its own.
	dial func(addr string) (msg.Conn, error)
	// redials is how many times the master re-dials a lost sink before
	// failing the run. 0 defaults to 3; negative disables re-dialing.
	redials int
	// collect fetches an assembled frame at run end (in-process mode,
	// where the master holds no pixels; set by RenderLocal).
	collect func(frame int) *fb.Framebuffer
}

// enabled reports whether the config actually routes pixels to sinks.
func (d *DFBConfig) enabled() bool { return d != nil && len(d.addrs) > 0 }

func (d *DFBConfig) redialBudget() int {
	if d.redials == 0 {
		return 3
	}
	return d.redials
}

// wireFlags is the TagTask flag word the config asks for.
func (c *Config) wireFlags() int {
	flags := 0
	if c.WireDelta {
		flags |= capWireDelta
	}
	if c.WireSpanCodec {
		flags |= capWireSpanCodec
	}
	if c.Timeline != nil {
		flags |= capWireTimeline
	}
	return flags
}

// tickEvery is both links' heartbeat tick interval, 0 for none: a
// quarter of Liveness, at least 1 ms.
func (c *Config) tickEvery() time.Duration {
	if c.Liveness <= 0 {
		return 0
	}
	return max(c.Liveness/4, time.Millisecond)
}

// cancelled returns the context error if the run was cancelled.
func (c *Config) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c *Config) defaults() error {
	if c.Scene == nil {
		return fmt.Errorf("farm: nil scene")
	}
	if err := c.Scene.Validate(); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("farm: bad resolution %dx%d", c.W, c.H)
	}
	if c.StartFrame == 0 && c.EndFrame == 0 {
		c.EndFrame = c.Scene.Frames
	}
	if c.StartFrame < 0 || c.EndFrame > c.Scene.Frames || c.StartFrame >= c.EndFrame {
		return fmt.Errorf("farm: bad frame range [%d,%d) for %d frames",
			c.StartFrame, c.EndFrame, c.Scene.Frames)
	}
	if reflect.ValueOf(c.Scheme).IsZero() {
		c.Scheme = partition.Scheme{Sequence: true, Adaptive: true}
	}
	if len(c.Machines) == 0 {
		c.Machines = cluster.PaperTestbed()
	}
	if c.Workers <= 0 {
		c.Workers = len(c.Machines)
	}
	if c.Samples < 1 {
		c.Samples = 1
	}
	if c.ObjSpaceShards != 0 && (c.ObjSpaceShards < 2 || c.ObjSpaceShards > objspace.MaxShards) {
		return fmt.Errorf("farm: object-space shard count %d outside [2,%d]", c.ObjSpaceShards, objspace.MaxShards)
	}
	if err := validateAA(c.AAThreshold); err != nil {
		return fmt.Errorf("farm: %w", err)
	}
	return nil
}

// Result summarises a farm run.
type Result struct {
	// Frames holds the assembled animation.
	Frames []*fb.Framebuffer
	// Run carries per-frame statistics (rays, pixels rendered and
	// copied, render time); in virtual mode Elapsed values are virtual
	// durations.
	Run stats.RunStats
	// Makespan is the end-to-end time (virtual or wall).
	Makespan time.Duration
	// Workers reports per-worker contribution, sorted by worker name.
	Workers []stats.WorkerStats
	// TasksExecuted counts task assignments (including stolen ranges).
	TasksExecuted int
	// Subdivisions counts adaptive splits performed.
	Subdivisions int
	// BytesTransferred totals message payload bytes master<->workers.
	BytesTransferred int64
	// Faults tallies failure-handling events: workers retired, frames
	// requeued/quarantined, duplicates and malformed messages absorbed.
	// All-zero on a healthy run with Liveness off.
	Faults stats.FaultCounters
	// Wire tallies the frame-result data path: key-frames vs dirty-span
	// deltas, span-coded payloads, and raw-vs-wire byte totals.
	Wire stats.WireStats
	// ObjSpace tallies object-space sharding when Config.ObjSpaceShards
	// was set: rays forwarded between shards, forwarding bytes, and
	// per-shard resident scene sizes. Zero when the mode was off.
	ObjSpace stats.ObjSpaceStats
	// Timeline is the merged cluster timeline when Config.Timeline was
	// set: the master's own events plus every shipped worker event,
	// shifted onto the master's clock by the per-worker offset estimates.
	// Nil when recording was off.
	Timeline *timeline.Timeline
}

// Speedup returns baseline.Makespan / r.Makespan.
func (r *Result) Speedup(baseline *Result) float64 {
	return cluster.Speedup(baseline.Makespan, r.Makespan)
}
