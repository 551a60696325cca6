// Package stats collects the counters and timings the benchmark harness
// reports: ray counts by class (Table 1 row 1), per-frame render times,
// and worker utilisation. Counter types are plain values updated without
// synchronisation: each counter is scratch-local to exactly one goroutine
// while it accumulates — a trace.Worker, a farm worker, a tile renderer —
// and owners' copies are combined with Merge at a barrier (the frame
// barrier for intra-frame tiles, result messages for the farm), mirroring
// how the paper's PVM slaves reported statistics back to the master.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	vm "nowrender/internal/vecmath"
)

// RayCounters tallies rays by kind. Not synchronised: a RayCounters is
// owned by one goroutine while counting (each parallel tile worker keeps
// its own), and owners are merged with Merge at a barrier, so totals
// never double count and are identical for every thread count.
type RayCounters struct {
	ByKind [vm.NumRayKinds]uint64
}

// Add records n rays of the given kind.
func (c *RayCounters) Add(kind vm.RayKind, n uint64) {
	c.ByKind[kind] += n
}

// Total returns the total number of rays.
func (c *RayCounters) Total() uint64 {
	var t uint64
	for _, v := range c.ByKind {
		t += v
	}
	return t
}

// Merge adds another counter set into c.
func (c *RayCounters) Merge(o RayCounters) {
	for i, v := range o.ByKind {
		c.ByKind[i] += v
	}
}

// String implements fmt.Stringer.
func (c *RayCounters) String() string {
	parts := make([]string, 0, vm.NumRayKinds+1)
	for k := 0; k < vm.NumRayKinds; k++ {
		parts = append(parts, fmt.Sprintf("%s=%d", vm.RayKind(k), c.ByKind[k]))
	}
	parts = append(parts, fmt.Sprintf("total=%d", c.Total()))
	return strings.Join(parts, " ")
}

// FrameStats records one frame's outcome.
type FrameStats struct {
	Frame int
	// Rendered is the number of pixels actually traced; Copied the
	// number reused from the previous frame by the coherence engine.
	Rendered, Copied int
	Rays             RayCounters
	// Elapsed is the time spent producing the frame. Depending on the
	// execution mode this is wall-clock or virtual NOW time.
	Elapsed time.Duration
}

// RunStats aggregates an animation run.
type RunStats struct {
	Frames []FrameStats
	// Total is the end-to-end animation time including file writing; in
	// parallel runs this is the master's elapsed time, not the sum of
	// worker times.
	Total time.Duration
}

// AddFrame appends a frame record, keeping frames sorted by frame index
// (parallel workers report out of order).
func (r *RunStats) AddFrame(f FrameStats) {
	r.Frames = append(r.Frames, f)
	// Insertion keeps the common in-order case O(1).
	for i := len(r.Frames) - 1; i > 0 && r.Frames[i].Frame < r.Frames[i-1].Frame; i-- {
		r.Frames[i], r.Frames[i-1] = r.Frames[i-1], r.Frames[i]
	}
}

// TotalRays sums ray counters over all frames.
func (r *RunStats) TotalRays() RayCounters {
	var c RayCounters
	for _, f := range r.Frames {
		c.Merge(f.Rays)
	}
	return c
}

// TotalRendered sums the pixels traced over all frames.
func (r *RunStats) TotalRendered() int {
	n := 0
	for _, f := range r.Frames {
		n += f.Rendered
	}
	return n
}

// FirstFrame returns the stats of the lowest-numbered frame and false if
// there are none.
func (r *RunStats) FirstFrame() (FrameStats, bool) {
	if len(r.Frames) == 0 {
		return FrameStats{}, false
	}
	return r.Frames[0], true
}

// AverageFrameTime returns the mean per-frame elapsed time.
func (r *RunStats) AverageFrameTime() time.Duration {
	if len(r.Frames) == 0 {
		return 0
	}
	var sum time.Duration
	for _, f := range r.Frames {
		sum += f.Elapsed
	}
	return sum / time.Duration(len(r.Frames))
}

// SumFrameTime returns the sum of per-frame times (single-processor
// "total frame time" in Table 1; for parallel runs use Total).
func (r *RunStats) SumFrameTime() time.Duration {
	var sum time.Duration
	for _, f := range r.Frames {
		sum += f.Elapsed
	}
	return sum
}

// WorkerStats records one worker's contribution to a parallel run.
type WorkerStats struct {
	Worker     string
	TasksDone  int
	PixelsDone int
	Busy       time.Duration
	Rays       RayCounters
}

// Utilisation returns Busy as a fraction of total, guarding total == 0.
func (w WorkerStats) Utilisation(total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(w.Busy) / float64(total)
}

// FaultCounters tallies the failure-handling events of a chaos-hardened
// farm run: workers retired, frames requeued or quarantined, duplicate
// and malformed messages absorbed. Like RayCounters they are plain
// values owned by one goroutine (the master loop) and combined with
// Merge when runs are aggregated (the service).
type FaultCounters struct {
	// WorkersLost counts workers retired for any reason: connection
	// failure (TagDown), graceful departure (TagBye), heartbeat or
	// stall timeout, or a malformed message.
	WorkersLost uint64
	// HeartbeatTimeouts counts workers retired because they stayed
	// silent past the liveness deadline.
	HeartbeatTimeouts uint64
	// StallTimeouts counts workers retired because they held a task
	// without delivering progress past the stall deadline.
	StallTimeouts uint64
	// MalformedMessages counts undecodable or protocol-violating
	// messages absorbed by retiring their sender.
	MalformedMessages uint64
	// DuplicatesDropped counts frame results discarded because the same
	// (frame, region) was already delivered (speculation, retries).
	DuplicatesDropped uint64
	// FramesRequeued counts frame renderings put back on the queue after
	// their worker was lost or their result went missing.
	FramesRequeued uint64
	// FramesQuarantined counts frame regions the master rendered locally
	// after the frame exhausted its retry budget.
	FramesQuarantined uint64
	// SpeculativeTasks counts straggler ranges re-issued to idle workers
	// near the end of the run.
	SpeculativeTasks uint64
	// PingsSent and PongsReceived count heartbeat traffic.
	PingsSent, PongsReceived uint64
}

// Merge adds another counter set into c.
func (c *FaultCounters) Merge(o FaultCounters) {
	c.WorkersLost += o.WorkersLost
	c.HeartbeatTimeouts += o.HeartbeatTimeouts
	c.StallTimeouts += o.StallTimeouts
	c.MalformedMessages += o.MalformedMessages
	c.DuplicatesDropped += o.DuplicatesDropped
	c.FramesRequeued += o.FramesRequeued
	c.FramesQuarantined += o.FramesQuarantined
	c.SpeculativeTasks += o.SpeculativeTasks
	c.PingsSent += o.PingsSent
	c.PongsReceived += o.PongsReceived
}

// Any reports whether any fault-handling event was recorded (heartbeat
// traffic alone does not count: pings flow on healthy runs too).
func (c FaultCounters) Any() bool {
	return c.WorkersLost+c.HeartbeatTimeouts+c.StallTimeouts+
		c.MalformedMessages+c.DuplicatesDropped+
		c.FramesRequeued+c.FramesQuarantined+c.SpeculativeTasks > 0
}

// String implements fmt.Stringer, listing only nonzero counters.
func (c FaultCounters) String() string {
	parts := []string{}
	add := func(name string, v uint64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("lost", c.WorkersLost)
	add("heartbeat", c.HeartbeatTimeouts)
	add("stalled", c.StallTimeouts)
	add("malformed", c.MalformedMessages)
	add("dup", c.DuplicatesDropped)
	add("requeued", c.FramesRequeued)
	add("quarantined", c.FramesQuarantined)
	add("speculative", c.SpeculativeTasks)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// WireStats tallies the farm data path's frame-result traffic: how many
// results arrived as full key-frames versus dirty-span deltas, how many
// payloads were span-coded, and how the bytes actually shipped compare
// to the raw pixel bytes they represent. Like FaultCounters
// they are owned by one goroutine (the master loop) and combined with
// Merge when runs are aggregated.
type WireStats struct {
	// FramesFull counts frame results carrying the region's full pixels
	// (key-frames, plain-path results, and size-guard fallbacks).
	FramesFull uint64
	// FramesDelta counts frame results encoded as dirty-span deltas over
	// the previous frame.
	FramesDelta uint64
	// FramesSpan counts results (full or delta) whose payload used the
	// span codec.
	FramesSpan uint64
	// WireBytesByEnc breaks WireBytes down by payload encoding: raw
	// payloads at 0, span-coded ones at 1.
	WireBytesByEnc [2]uint64
	// DeltaBaseMisses counts deltas discarded because their base frame
	// never arrived (its result was lost in transit); the frame is
	// re-rendered by the usual requeue path.
	DeltaBaseMisses uint64
	// RawBytes is the full-region RGB byte count the delivered results
	// represent; WireBytes is what actually crossed the wire (sealed
	// payload, spans and counters included).
	RawBytes, WireBytes uint64
	// BaseMissByWorker breaks DeltaBaseMisses down by worker name, so a
	// flaky link or a worker that keeps losing its delta chain is
	// attributable. Nil until the first miss.
	BaseMissByWorker map[string]uint64
	// MasterIngressBytes is the slice of WireBytes that entered the
	// master itself. On the master-routed path it equals
	// WireBytes; with the distributed framebuffer it counts only the
	// small control acks and sink confirmations, while the pixel
	// payloads (SinkIngressBytes) land at the compositor sinks.
	MasterIngressBytes uint64
	// SinkIngressBytes counts frame-result payload bytes received by
	// compositor sinks (zero on the master-routed path).
	SinkIngressBytes uint64
	// FramesAcked counts DFB control acks: frame results a worker
	// shipped to a sink and acknowledged to the master.
	FramesAcked uint64
}

// CountEncoding tallies one frame result's wire bytes by payload
// encoding: span-coded or raw.
func (c *WireStats) CountEncoding(span bool, wireBytes uint64) {
	if span {
		c.FramesSpan++
		c.WireBytesByEnc[1] += wireBytes
	} else {
		c.WireBytesByEnc[0] += wireBytes
	}
}

// AddBaseMiss counts one discarded delta, attributed to a worker.
func (c *WireStats) AddBaseMiss(worker string) {
	c.DeltaBaseMisses++
	if c.BaseMissByWorker == nil {
		c.BaseMissByWorker = make(map[string]uint64)
	}
	c.BaseMissByWorker[worker]++
}

// Merge adds another counter set into c.
func (c *WireStats) Merge(o WireStats) {
	c.FramesFull += o.FramesFull
	c.FramesDelta += o.FramesDelta
	c.FramesSpan += o.FramesSpan
	for i := range c.WireBytesByEnc {
		c.WireBytesByEnc[i] += o.WireBytesByEnc[i]
	}
	c.DeltaBaseMisses += o.DeltaBaseMisses
	c.RawBytes += o.RawBytes
	c.WireBytes += o.WireBytes
	c.MasterIngressBytes += o.MasterIngressBytes
	c.SinkIngressBytes += o.SinkIngressBytes
	c.FramesAcked += o.FramesAcked
	if len(o.BaseMissByWorker) > 0 {
		if c.BaseMissByWorker == nil {
			c.BaseMissByWorker = make(map[string]uint64, len(o.BaseMissByWorker))
		}
		for w, n := range o.BaseMissByWorker {
			c.BaseMissByWorker[w] += n
		}
	}
}

// Ratio returns RawBytes / WireBytes — how many raw pixel bytes each
// wire byte carried (> 1 when deltas and the span codec pay off) — or 0
// before any traffic.
func (c WireStats) Ratio() float64 {
	if c.WireBytes == 0 {
		return 0
	}
	return float64(c.RawBytes) / float64(c.WireBytes)
}

// String implements fmt.Stringer.
func (c WireStats) String() string {
	if c.FramesFull+c.FramesDelta == 0 {
		return "none"
	}
	s := fmt.Sprintf("full=%d delta=%d span=%d base-miss=%d wire=%d raw=%d ratio=%.2f",
		c.FramesFull, c.FramesDelta, c.FramesSpan, c.DeltaBaseMisses,
		c.WireBytes, c.RawBytes, c.Ratio())
	if c.FramesAcked > 0 || c.SinkIngressBytes > 0 {
		s += fmt.Sprintf(" acked=%d master-in=%d sink-in=%d",
			c.FramesAcked, c.MasterIngressBytes, c.SinkIngressBytes)
	}
	return s
}

// ObjSpaceShard describes one spatial shard of an object-space run:
// its share of the forwarding traffic and its resident scene size.
type ObjSpaceShard struct {
	// RaysForwarded counts rays this shard serialized and handed to the
	// next shard along their direction; ForwardBytes the encoded bytes.
	RaysForwarded uint64
	ForwardBytes  uint64
	// Objects and Tris describe the shard's resident geometry (clipped
	// meshes count only the triangles they keep); ResidentBytes is the
	// estimated resident scene size — geometry plus the shard's grid.
	// For multi-frame runs these hold the peak across frames.
	Objects       int
	Tris          int
	ResidentBytes uint64
}

// ObjSpaceStats tallies an object-space (sharded scene) run: how many
// rays crossed shard boundaries, what the forwarding protocol cost in
// bytes, and how big each shard's resident slice of the scene was. Like
// the other counter types it is a plain value owned by one goroutine
// and combined with Merge when runs are aggregated.
type ObjSpaceStats struct {
	// Shards is the shard count of the partition (0 = objspace off).
	Shards int
	// RaysForwarded and ForwardBytes total the per-shard counters.
	RaysForwarded uint64
	ForwardBytes  uint64
	// PerShard breaks the counters down by shard index.
	PerShard []ObjSpaceShard
	// PeakResidentBytes is the largest per-shard resident scene size —
	// the number that must shrink as Shards grows for the decomposition
	// to deliver its memory promise.
	PeakResidentBytes uint64
}

// Enabled reports whether the run used object-space sharding.
func (c ObjSpaceStats) Enabled() bool { return c.Shards > 1 }

// Merge adds another counter set into c. Shard counts are expected to
// match across merged runs of one job; the larger partition wins when
// they differ.
func (c *ObjSpaceStats) Merge(o ObjSpaceStats) {
	if o.Shards > c.Shards {
		c.Shards = o.Shards
	}
	c.RaysForwarded += o.RaysForwarded
	c.ForwardBytes += o.ForwardBytes
	for len(c.PerShard) < len(o.PerShard) {
		c.PerShard = append(c.PerShard, ObjSpaceShard{})
	}
	for i, s := range o.PerShard {
		d := &c.PerShard[i]
		d.RaysForwarded += s.RaysForwarded
		d.ForwardBytes += s.ForwardBytes
		if s.Objects > d.Objects {
			d.Objects = s.Objects
		}
		if s.Tris > d.Tris {
			d.Tris = s.Tris
		}
		if s.ResidentBytes > d.ResidentBytes {
			d.ResidentBytes = s.ResidentBytes
		}
	}
	if o.PeakResidentBytes > c.PeakResidentBytes {
		c.PeakResidentBytes = o.PeakResidentBytes
	}
}

// String implements fmt.Stringer.
func (c ObjSpaceStats) String() string {
	if !c.Enabled() {
		return "off"
	}
	return fmt.Sprintf("shards=%d forwarded=%d fwd-bytes=%d peak-resident=%d",
		c.Shards, c.RaysForwarded, c.ForwardBytes, c.PeakResidentBytes)
}

// CacheStats is a snapshot of a content-addressed cache's counters (the
// service-level frame cache reports these through /metrics).
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped to
	// stay under the byte budget; Expired counts entries dropped because
	// they outlived the cache's TTL (also included in Misses when the
	// expiry was discovered by a lookup).
	Hits, Misses, Evictions, Expired uint64
	// Coalesced counts lookups that joined an in-flight production of
	// the same frame instead of rendering it again; FlightsLed counts
	// the productions so coalesced-onto.
	Coalesced, FlightsLed uint64
	// InFlight is the number of frames currently being produced.
	InFlight int
	// Entries and Bytes describe current occupancy — Bytes is cached
	// pixels plus the encoded forms kept beside them, EncodedBytes the
	// encoded share of it; Budget is the configured limit on Bytes
	// (0 = unlimited).
	Entries      int
	Bytes        int64
	EncodedBytes int64
	Budget       int64
}

// HitRate returns hits / lookups, or 0 before any lookup.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Table renders rows of labelled values as a fixed-width text table, the
// output format of cmd/benchtab. Columns are derived from the union of
// row keys, ordered by first appearance.
type Table struct {
	cols []string
	rows []map[string]string
}

// AddRow appends a row given alternating key, value pairs.
func (t *Table) AddRow(kv ...string) {
	if len(kv)%2 != 0 {
		panic("stats: AddRow needs key/value pairs")
	}
	row := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k, v := kv[i], kv[i+1]
		if !contains(t.cols, k) {
			t.cols = append(t.cols, k)
		}
		row[k] = v
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	width := make(map[string]int, len(t.cols))
	for _, c := range t.cols {
		width[c] = len(c)
	}
	for _, r := range t.rows {
		for _, c := range t.cols {
			if len(r[c]) > width[c] {
				width[c] = len(r[c])
			}
		}
	}
	var b strings.Builder
	for _, c := range t.cols {
		fmt.Fprintf(&b, "%-*s  ", width[c], c)
	}
	b.WriteByte('\n')
	for _, c := range t.cols {
		b.WriteString(strings.Repeat("-", width[c]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for _, c := range t.cols {
			fmt.Fprintf(&b, "%-*s  ", width[c], r[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.cols, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		vals := make([]string, len(t.cols))
		for i, c := range t.cols {
			vals[i] = r[c]
		}
		b.WriteString(strings.Join(vals, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatDuration renders a duration as the paper's h:mm:ss style.
func FormatDuration(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := int64(d.Round(time.Second) / time.Second)
	h := total / 3600
	m := (total % 3600) / 60
	s := total % 60
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, s)
	}
	return fmt.Sprintf("%d:%02d", m, s)
}

// SortedKeys returns map keys in sorted order (helper for deterministic
// report output).
func SortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
