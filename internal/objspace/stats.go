package objspace

import (
	"sync/atomic"

	"nowrender/internal/stats"
)

// Stats accumulates one task's forwarding counters and the resident sizes
// of the clusters it used, across every frame (see Cluster.WorkersFor).
// All methods are safe for concurrent use by any number of routing
// workers; counters are attributed to the shard that *sent* each forward.
type Stats struct {
	shards    atomic.Int32
	forwarded [MaxShards]atomic.Uint64
	fwdBytes  [MaxShards]atomic.Uint64
	objects   [MaxShards]atomic.Int64
	tris      [MaxShards]atomic.Int64
	resident  [MaxShards]atomic.Uint64
}

// observe records a cluster's per-shard resident sizes (max-merged, so
// the peak across frames survives).
func (st *Stats) observe(c *Cluster) {
	n := int32(len(c.shard))
	for {
		cur := st.shards.Load()
		if cur >= n || st.shards.CompareAndSwap(cur, n) {
			break
		}
	}
	for i, s := range c.shard {
		storeMaxI64(&st.objects[i], int64(len(s.Objs)))
		storeMaxI64(&st.tris[i], int64(s.Tris))
		storeMaxU64(&st.resident[i], s.ResidentBytes)
	}
}

// countForward records one ray forwarded out of shard from, serialized
// to n bytes.
func (st *Stats) countForward(from, n int) {
	st.forwarded[from].Add(1)
	st.fwdBytes[from].Add(uint64(n))
}

// RaysForwarded returns the total forwards counted so far (all shards).
func (st *Stats) RaysForwarded() uint64 {
	var sum uint64
	for i := int32(0); i < st.shards.Load(); i++ {
		sum += st.forwarded[i].Load()
	}
	return sum
}

// Snapshot converts the live counters into a plain-value report.
func (st *Stats) Snapshot() stats.ObjSpaceStats {
	n := int(st.shards.Load())
	out := stats.ObjSpaceStats{Shards: n}
	for i := 0; i < n; i++ {
		sh := stats.ObjSpaceShard{
			RaysForwarded: st.forwarded[i].Load(),
			ForwardBytes:  st.fwdBytes[i].Load(),
			Objects:       int(st.objects[i].Load()),
			Tris:          int(st.tris[i].Load()),
			ResidentBytes: st.resident[i].Load(),
		}
		out.PerShard = append(out.PerShard, sh)
		out.RaysForwarded += sh.RaysForwarded
		out.ForwardBytes += sh.ForwardBytes
		if sh.ResidentBytes > out.PeakResidentBytes {
			out.PeakResidentBytes = sh.ResidentBytes
		}
	}
	return out
}

func storeMaxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMaxI64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
