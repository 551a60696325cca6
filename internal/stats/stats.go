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
	"slices"
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
// Merge when runs are aggregated (the service). FaultTable lists them.
type FaultCounters struct {
	// WorkersLost counts workers retired for any reason: connection
	// failure (TagDown), graceful departure (TagBye), heartbeat or
	// stall timeout, or a malformed message.
	WorkersLost uint64 `json:"workers_lost,omitempty"`
	// HeartbeatTimeouts counts workers retired because they stayed
	// silent past the liveness deadline.
	HeartbeatTimeouts uint64 `json:"-"`
	// StallTimeouts counts workers retired because they held a task
	// without delivering progress past the stall deadline.
	StallTimeouts uint64 `json:"-"`
	// MalformedMessages counts undecodable or protocol-violating
	// messages absorbed by retiring their sender.
	MalformedMessages uint64 `json:"-"`
	// DuplicatesDropped counts frame results discarded because the same
	// (frame, region) was already delivered (speculation, retries).
	DuplicatesDropped uint64 `json:"-"`
	// FramesRequeued counts frame renderings put back on the queue after
	// their worker was lost or their result went missing.
	FramesRequeued uint64 `json:"frames_requeued,omitempty"`
	// FramesQuarantined counts frame regions the master rendered locally
	// after the frame exhausted its retry budget.
	FramesQuarantined uint64 `json:"-"`
	// SpeculativeTasks counts straggler ranges re-issued to idle workers
	// near the end of the run.
	SpeculativeTasks uint64 `json:"-"`
	// PingsSent and PongsReceived count heartbeat traffic.
	PingsSent, PongsReceived uint64 `json:"-"`
}

const faultFamily = "nowrender_fault_events_total"

// FaultTable is the one list of FaultCounters' counters. The report
// names every fault-handling event; heartbeat traffic, which flows on
// healthy runs too, is only exported.
var FaultTable = []Counter[FaultCounters]{
	{Family: faultFamily, Label: `kind="workers_lost"`, Short: "lost", Field: func(c *FaultCounters) *uint64 { return &c.WorkersLost },
		Help: "Farm fault-handling events by kind (workers retired, deadline expiries, malformed messages absorbed, frames requeued or quarantined, duplicates dropped, speculative re-issues)."},
	{Family: faultFamily, Label: `kind="heartbeat_timeouts"`, Short: "heartbeat", Field: func(c *FaultCounters) *uint64 { return &c.HeartbeatTimeouts }},
	{Family: faultFamily, Label: `kind="stall_timeouts"`, Short: "stalled", Field: func(c *FaultCounters) *uint64 { return &c.StallTimeouts }},
	{Family: faultFamily, Label: `kind="malformed_messages"`, Short: "malformed", Field: func(c *FaultCounters) *uint64 { return &c.MalformedMessages }},
	{Family: faultFamily, Label: `kind="duplicates_dropped"`, Short: "dup", Field: func(c *FaultCounters) *uint64 { return &c.DuplicatesDropped }},
	{Family: faultFamily, Label: `kind="frames_requeued"`, Short: "requeued", Field: func(c *FaultCounters) *uint64 { return &c.FramesRequeued }},
	{Family: faultFamily, Label: `kind="frames_quarantined"`, Short: "quarantined", Field: func(c *FaultCounters) *uint64 { return &c.FramesQuarantined }},
	{Family: faultFamily, Label: `kind="speculative_tasks"`, Short: "speculative", Field: func(c *FaultCounters) *uint64 { return &c.SpeculativeTasks }},
	{Family: "nowrender_heartbeat_pings_total", Help: "Heartbeat pings sent to workers.", Field: func(c *FaultCounters) *uint64 { return &c.PingsSent }},
	{Family: "nowrender_heartbeat_pongs_total", Help: "Heartbeat pongs received from workers.", Field: func(c *FaultCounters) *uint64 { return &c.PongsReceived }},
}

// Merge adds another counter set into c.
func (c *FaultCounters) Merge(o FaultCounters) { mergeRows(FaultTable, c, &o) }

// Any reports whether any fault-handling event was recorded (heartbeat
// traffic alone does not count: pings flow on healthy runs too).
func (c FaultCounters) Any() bool { return len(report(FaultTable, &c, true)) > 0 }

// String implements fmt.Stringer, listing only nonzero counters.
func (c FaultCounters) String() string {
	if parts := report(FaultTable, &c, true); len(parts) > 0 {
		return strings.Join(parts, " ")
	}
	return "none"
}

// WireStats tallies the farm data path's frame-result traffic: how many
// results arrived as full key-frames versus dirty-span deltas, how many
// payloads were span-coded, and how the bytes actually shipped compare
// to the raw pixel bytes they represent. Like FaultCounters
// they are owned by one goroutine (the master loop) and combined with
// Merge when runs are aggregated. WireTable lists them.
type WireStats struct {
	// FramesFull counts frame results carrying the region's full pixels
	// (key-frames, plain-path results, and size-guard fallbacks).
	FramesFull uint64 `json:"wire_frames_full,omitempty"`
	// FramesDelta counts frame results encoded as dirty-span deltas over
	// the previous frame.
	FramesDelta uint64 `json:"wire_frames_delta,omitempty"`
	// FramesSpan counts results (full or delta) whose payload used the
	// span codec.
	FramesSpan uint64 `json:"wire_frames_span,omitempty"`
	// WireBytesByEnc breaks WireBytes down by payload encoding: raw
	// payloads at 0, span-coded ones at 1.
	WireBytesByEnc [2]uint64 `json:"-"`
	// WireBytes is what actually crossed the wire (sealed payload, spans
	// and counters included); RawBytes is the full-region RGB byte count
	// the delivered results represent.
	WireBytes uint64 `json:"wire_bytes,omitempty"`
	RawBytes  uint64 `json:"wire_raw_bytes,omitempty"`
	// MasterIngressBytes is the slice of WireBytes that entered the
	// master itself. On the master-routed path it equals
	// WireBytes; with the distributed framebuffer it counts only the
	// small control acks and sink confirmations, while the pixel
	// payloads (SinkIngressBytes) land at the compositor sinks.
	MasterIngressBytes uint64 `json:"wire_master_ingress_bytes,omitempty"`
	// SinkIngressBytes counts frame-result payload bytes received by
	// compositor sinks (zero on the master-routed path).
	SinkIngressBytes uint64 `json:"wire_sink_ingress_bytes,omitempty"`
	// FramesAcked counts DFB control acks: frame results a worker
	// shipped to a sink and acknowledged to the master.
	FramesAcked uint64 `json:"wire_frames_acked,omitempty"`
	// DeltaBaseMisses counts deltas discarded because their base frame
	// never arrived (its result was lost in transit); the frame is
	// re-rendered by the usual requeue path.
	DeltaBaseMisses uint64 `json:"wire_base_misses,omitempty"`
	// BaseMissByWorker breaks DeltaBaseMisses down by worker name, so a
	// flaky link or a worker that keeps losing its delta chain is
	// attributable. Nil until the first miss.
	BaseMissByWorker map[string]uint64 `json:"wire_base_miss_by_worker,omitempty"`
}

const (
	wireFrames  = "nowrender_wire_frames_total"
	wireBytes   = "nowrender_wire_bytes_total"
	wireCodec   = "nowrender_wire_codec_bytes_total"
	wireIngress = "nowrender_wire_ingress_bytes_total"
)

// WireTable is the one list of WireStats' counters. String appends the
// derived ratio and, on distributed-framebuffer runs, the ingress split
// by hand; Merge adds BaseMissByWorker by hand.
var WireTable = []Counter[WireStats]{
	{Family: wireFrames, Label: `kind="full"`, Short: "full", Field: func(c *WireStats) *uint64 { return &c.FramesFull },
		Help: "Frame results received over the farm data path by kind (full key-frames, dirty-span deltas, span-codec payloads, deltas dropped for a missing base)."},
	{Family: wireFrames, Label: `kind="delta"`, Short: "delta", Field: func(c *WireStats) *uint64 { return &c.FramesDelta }},
	{Family: wireFrames, Label: `kind="span"`, Short: "span", Field: func(c *WireStats) *uint64 { return &c.FramesSpan }},
	{Family: wireFrames, Label: `kind="delta_base_miss"`, Short: "base-miss", Field: func(c *WireStats) *uint64 { return &c.DeltaBaseMisses }},
	{Family: wireBytes, Label: `kind="wire"`, Short: "wire", Field: func(c *WireStats) *uint64 { return &c.WireBytes },
		Help: "Frame payload bytes by accounting (wire = bytes actually shipped, raw = uncompressed full-region pixels they represent)."},
	{Family: wireBytes, Label: `kind="raw"`, Short: "raw", Field: func(c *WireStats) *uint64 { return &c.RawBytes }},
	{Family: wireCodec, Label: `codec="raw"`, Field: func(c *WireStats) *uint64 { return &c.WireBytesByEnc[0] },
		Help: "Frame payload bytes shipped on the wire by payload encoding (raw where the span codec was off or failed to shrink the payload)."},
	{Family: wireCodec, Label: `codec="span"`, Field: func(c *WireStats) *uint64 { return &c.WireBytesByEnc[1] }},
	{Family: wireIngress, Label: `at="master"`, Field: func(c *WireStats) *uint64 { return &c.MasterIngressBytes },
		Help: "Result-path bytes by landing point: the master's own ingress versus distributed-framebuffer compositor sinks."},
	{Family: wireIngress, Label: `at="sink"`, Field: func(c *WireStats) *uint64 { return &c.SinkIngressBytes }},
	{Family: "nowrender_wire_frame_acks_total", Help: "DFB control acks received by the master in place of pixel payloads.", Field: func(c *WireStats) *uint64 { return &c.FramesAcked }},
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

// Merge adds another counter set into c. Merging into a zero WireStats
// makes a deep copy.
func (c *WireStats) Merge(o WireStats) {
	mergeRows(WireTable, c, &o)
	if len(o.BaseMissByWorker) > 0 && c.BaseMissByWorker == nil {
		c.BaseMissByWorker = make(map[string]uint64, len(o.BaseMissByWorker))
	}
	for w, n := range o.BaseMissByWorker {
		c.BaseMissByWorker[w] += n
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
	s := strings.Join(report(WireTable, &c, false), " ") + fmt.Sprintf(" ratio=%.2f", c.Ratio())
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

// ShardTable is the one list of ObjSpaceShard's counters; /metrics
// labels each family's samples by shard index.
var ShardTable = []Counter[ObjSpaceShard]{
	{Family: "nowrender_rays_forwarded_total", Help: "Object-space rays forwarded between shard owners, by sending shard.", Field: func(c *ObjSpaceShard) *uint64 { return &c.RaysForwarded }},
	{Family: "nowrender_forward_bytes_total", Help: "Bytes the forwarded ray states serialized to, by sending shard.", Field: func(c *ObjSpaceShard) *uint64 { return &c.ForwardBytes }},
	{Family: "nowrender_objspace_peak_resident_bytes", Help: "Largest per-shard resident scene size any sharded task built, by shard.", Gauge: true, Field: func(c *ObjSpaceShard) *uint64 { return &c.ResidentBytes }},
}

// ObjSpaceStats tallies an object-space (sharded scene) run: how many
// rays crossed shard boundaries, what the forwarding protocol cost in
// bytes, and how big each shard's resident slice of the scene was. Like
// the other counter types it is a plain value owned by one goroutine
// and combined with Merge when runs are aggregated. objSpaceTable lists
// its totals.
type ObjSpaceStats struct {
	// Shards is the shard count of the partition (0 = objspace off).
	Shards int `json:"-"`
	// RaysForwarded and ForwardBytes total the per-shard counters.
	RaysForwarded uint64 `json:"rays_forwarded,omitempty"`
	ForwardBytes  uint64 `json:"forward_bytes,omitempty"`
	// PerShard breaks the counters down by shard index.
	PerShard []ObjSpaceShard `json:"-"`
	// PeakResidentBytes is the largest per-shard resident scene size —
	// the number that must shrink as Shards grows for the decomposition
	// to deliver its memory promise.
	PeakResidentBytes uint64 `json:"objspace_peak_resident_bytes,omitempty"`
}

// objSpaceTable is the one list of ObjSpaceStats' totals. /metrics
// exports them by shard, from PerShard.
var objSpaceTable = []Counter[ObjSpaceStats]{
	{Short: "forwarded", Field: func(c *ObjSpaceStats) *uint64 { return &c.RaysForwarded }},
	{Short: "fwd-bytes", Field: func(c *ObjSpaceStats) *uint64 { return &c.ForwardBytes }},
	{Short: "peak-resident", Gauge: true, Field: func(c *ObjSpaceStats) *uint64 { return &c.PeakResidentBytes }},
}

// Enabled reports whether the run used object-space sharding.
func (c ObjSpaceStats) Enabled() bool { return c.Shards > 1 }

// Merge adds another counter set into c. Shard counts are expected to
// match across merged runs of one job; the larger partition wins when
// they differ. Merging into a zero ObjSpaceStats makes a deep copy.
func (c *ObjSpaceStats) Merge(o ObjSpaceStats) {
	c.Shards = max(c.Shards, o.Shards)
	mergeRows(objSpaceTable, c, &o)
	for len(c.PerShard) < len(o.PerShard) {
		c.PerShard = append(c.PerShard, ObjSpaceShard{})
	}
	for i, s := range o.PerShard {
		d := &c.PerShard[i]
		mergeRows(ShardTable, d, &s)
		d.Objects = max(d.Objects, s.Objects)
		d.Tris = max(d.Tris, s.Tris)
	}
}

// String implements fmt.Stringer.
func (c ObjSpaceStats) String() string {
	if !c.Enabled() {
		return "off"
	}
	return fmt.Sprintf("shards=%d ", c.Shards) + strings.Join(report(objSpaceTable, &c, false), " ")
}

// CacheStats is a snapshot of a content-addressed cache's counters (the
// service-level frame cache reports these through /metrics). CacheTable
// lists them.
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped to
	// stay under the byte budget.
	Hits, Misses, Evictions uint64
	// InFlight is the number of frames currently being produced.
	InFlight uint64
	// Entries and Bytes describe current occupancy — Bytes is cached
	// pixels plus the encoded forms kept beside them, EncodedBytes the
	// encoded share of it.
	Entries      uint64
	Bytes        uint64
	EncodedBytes uint64
}

// CacheTable is the one list of CacheStats' counters.
var CacheTable = []Counter[CacheStats]{
	{Family: "nowrender_cache_hits_total", Help: "Frame cache hits.", Field: func(c *CacheStats) *uint64 { return &c.Hits }},
	{Family: "nowrender_cache_misses_total", Help: "Frame cache misses.", Field: func(c *CacheStats) *uint64 { return &c.Misses }},
	{Family: "nowrender_cache_evictions_total", Help: "Frames evicted to fit the byte budget.", Field: func(c *CacheStats) *uint64 { return &c.Evictions }},
	{Family: "nowrender_cache_hit_rate", Help: "Hits over lookups since start.", Gauge: true, Value: (*CacheStats).HitRate},
	{Family: "nowrender_cache_bytes", Help: "Bytes currently cached: frame pixels plus the encoded TGA files kept beside them.", Gauge: true, Field: func(c *CacheStats) *uint64 { return &c.Bytes }},
	{Family: "nowrender_cache_encoded_bytes", Help: "Share of nowrender_cache_bytes that is encoded TGA files.", Gauge: true, Field: func(c *CacheStats) *uint64 { return &c.EncodedBytes }},
	{Family: "nowrender_cache_entries", Help: "Frames currently cached.", Gauge: true, Field: func(c *CacheStats) *uint64 { return &c.Entries }},
	{Family: "nowrender_cache_inflight", Help: "Frame renders currently in flight (coalescing targets).", Gauge: true, Field: func(c *CacheStats) *uint64 { return &c.InFlight }},
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
// output format of `now tables`. Columns are derived from the union of
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
		if !slices.Contains(t.cols, k) {
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
